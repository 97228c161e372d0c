"""Unit tests for the reference-latency profiling procedure (§4)."""

import dataclasses

import pytest

from repro.config import HDD_PROFILE, MB, SSD_PROFILE, StorageProfile, default_cluster
from repro.core import profiling
from repro.core.profiling import (
    ProfilePoint,
    calibrate_controller,
    profile_device,
    reference_latency,
)
from repro.storage import StorageDevice
from tests.core import profiling_oracle

#: The HDD under processor sharing, and with writes that storm inside
#: the probe's 20 s window (HDD_PROFILE's 3 GB threshold is never hit).
HDD_PS = dataclasses.replace(HDD_PROFILE, name="hdd-ps", discipline="ps")
STORMY = dataclasses.replace(HDD_PROFILE, name="stormy", flush_threshold=256 * MB)


def test_profile_points_monotone_throughput_and_latency():
    points = profile_device(HDD_PROFILE, "read", chunk=4 * MB, max_concurrency=8,
                            duration=5.0)
    assert len(points) == 8
    thr = [p.throughput for p in points]
    lat = [p.latency for p in points]
    # Throughput grows (to saturation) and latency grows with concurrency.
    assert thr[-1] > thr[0]
    assert lat[-1] > lat[0]
    assert all(p.concurrency == i + 1 for i, p in enumerate(points))


def test_profile_rejects_bad_op():
    with pytest.raises(ValueError):
        profile_device(HDD_PROFILE, "erase", chunk=1 * MB)


def test_reference_latency_picks_knee():
    points = [
        ProfilePoint(1, 0.010, 50.0),
        ProfilePoint(2, 0.020, 80.0),
        ProfilePoint(3, 0.030, 95.0),
        ProfilePoint(4, 0.040, 100.0),
    ]
    # 0.9 * 100 = 90 -> first point at or above is n=3.
    assert reference_latency(points, 0.9) == 0.030
    assert reference_latency(points, 0.5) == 0.010


def test_reference_latency_validation():
    with pytest.raises(ValueError):
        reference_latency([], 0.9)
    with pytest.raises(ValueError):
        reference_latency([ProfilePoint(1, 1.0, 1.0)], 0.0)


def test_calibrate_controller_hdd_is_symmetricish():
    cfg = default_cluster()
    ctrl = calibrate_controller(cfg)
    # HDD: identical read/write service -> identical references.
    assert ctrl.ref_latency_read == ctrl.ref_latency_write
    assert ctrl.ref_latency_read > 0


def test_calibrate_controller_ssd_asymmetric():
    cfg = default_cluster(storage=SSD_PROFILE)
    ctrl = calibrate_controller(cfg)
    # Writes cost 3x on flash: the write reference must be clearly higher.
    assert ctrl.ref_latency_write > 1.5 * ctrl.ref_latency_read


@pytest.fixture
def probe_devices(monkeypatch):
    """Every device the probe builds: one per concurrency level swept."""
    devices = []

    def counting_device(*args, **kwargs):
        devices.append(StorageDevice(*args, **kwargs))
        return devices[-1]

    monkeypatch.setattr(profiling, "StorageDevice", counting_device)
    return devices


@pytest.mark.parametrize("op", ["read", "write"])
@pytest.mark.parametrize(
    "storage", [HDD_PROFILE, SSD_PROFILE, HDD_PS, STORMY], ids=lambda p: p.name)
def test_probe_matches_process_per_client_oracle(storage, op):
    assert profile_device(storage, op, 4 * MB) == list(
        profiling_oracle.profile_device(storage, op, 4 * MB))


@pytest.mark.parametrize("storage, levels, read_ref, write_ref", [
    (HDD_PROFILE, 16, 0.12006689745508832, 0.12006689745508832),
    (SSD_PROFILE, 32, 0.0315706173952241, 0.09430828481862981),
], ids=["hdd", "ssd"])
def test_calibrate_controller_pins(probe_devices, storage, levels, read_ref, write_ref):
    """HDD reads cost what writes do and no write storms in the window,
    so one sweep serves both ops; SSD writes cost 3x and get their own."""
    ctrl = calibrate_controller(default_cluster(storage=storage))
    assert len(probe_devices) == levels
    assert ctrl.ref_latency_read == read_ref
    assert ctrl.ref_latency_write == write_ref


def test_calibrate_controller_profiles_reads_after_a_write_storm(probe_devices):
    ctrl = calibrate_controller(default_cluster(storage=STORMY))
    assert len(probe_devices) == 32
    reads = profiling_oracle.profile_device(STORMY, "read", 4 * MB)
    writes = profiling_oracle.profile_device(STORMY, "write", 4 * MB)
    assert reads != writes
    assert ctrl.ref_latency_read == reference_latency(list(reads))
    assert ctrl.ref_latency_write == reference_latency(list(writes))


def test_profile_names_a_level_that_completes_nothing():
    slow = StorageProfile(name="slow", peak_rate=5e4, n_half=0.4, discipline="fcfs")
    with pytest.raises(ValueError, match="'slow'.*write.*concurrency 1"):
        profile_device(slow, "write", 4 * MB)
