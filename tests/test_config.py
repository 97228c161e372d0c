"""Tests for configuration presets and validation (incl. Table 1)."""

import dataclasses
import json

import pytest

from repro.config import (
    GB,
    HDD_PROFILE,
    MB,
    SSD_PROFILE,
    ClusterConfig,
    StorageProfile,
    YarnConfig,
    default_cluster,
)


def test_table1_constants():
    """Table 1: replication 3, block size 134,217,728, FS preemption on."""
    yarn = YarnConfig()
    assert yarn.dfs_replication == 3
    assert yarn.dfs_block_size == 134_217_728
    assert yarn.fairscheduler_preemption is True
    assert yarn.preemption_timeout == 5.0


def test_testbed_shape():
    """§7.1: eight workers, 12 cores each, 1 core/2GB maps, 1 core/8GB reduces."""
    cfg = default_cluster()
    assert cfg.n_workers == 8
    assert cfg.cores_per_node == 12
    assert cfg.n_workers * cfg.cores_per_node == 96
    assert cfg.yarn.map_task_vcores == 1
    assert cfg.yarn.map_task_memory == 2 * GB
    assert cfg.yarn.reduce_task_memory == 8 * GB


def test_storage_profiles():
    assert HDD_PROFILE.discipline == "fcfs"
    assert HDD_PROFILE.flush_threshold > 0          # Fig. 7 storms
    assert SSD_PROFILE.write_cost > HDD_PROFILE.write_cost  # flash asymmetry
    assert SSD_PROFILE.peak_rate > HDD_PROFILE.peak_rate


def test_rate_curve_monotone_saturating():
    r = [HDD_PROFILE.rate_at(n) for n in range(0, 20)]
    assert r[0] == 0.0
    assert all(b >= a for a, b in zip(r[1:], r[2:]))
    assert r[-1] <= HDD_PROFILE.peak_rate


def test_profile_validation():
    with pytest.raises(ValueError):
        StorageProfile(name="x", peak_rate=0.0, n_half=0.0)
    with pytest.raises(ValueError):
        StorageProfile(name="x", peak_rate=1.0, n_half=-1.0)
    with pytest.raises(ValueError):
        StorageProfile(name="x", peak_rate=1.0, n_half=0.0, read_cost=0.0)
    with pytest.raises(ValueError):
        StorageProfile(name="x", peak_rate=1.0, n_half=0.0, flush_factor=0.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("peak_rate", _NAN), ("peak_rate", _INF),
    ("n_half", _NAN), ("n_half", _INF),
    ("read_cost", _NAN), ("read_cost", _INF),
    ("write_cost", _NAN), ("write_cost", _INF),
    ("request_overhead", -1.0), ("request_overhead", _NAN), ("request_overhead", _INF),
    ("flush_threshold", -1.0), ("flush_threshold", _NAN),
    ("flush_duration", -1.0), ("flush_duration", _NAN), ("flush_duration", _INF),
])
def test_profile_rejects_bad_value_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(HDD_PROFILE, **{field: value})


def test_profile_from_json_rejects_nan_literal():
    data = json.loads('{"name": "x", "peak_rate": NaN, "n_half": 0.4}')
    with pytest.raises(ValueError, match="peak_rate"):
        StorageProfile.from_dict(data)


def test_link_profile_and_unbounded_flush_threshold_stay_valid():
    link = StorageProfile(name="link:n0", peak_rate=125 * MB, n_half=0.0)
    assert link.rate_at(3) == 125 * MB
    never = dataclasses.replace(HDD_PROFILE, flush_threshold=_INF)
    assert never.flush_threshold == _INF


def test_cluster_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_workers=0)
    with pytest.raises(ValueError):
        ClusterConfig(scale=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(scale=2.0)
    with pytest.raises(ValueError):
        ClusterConfig(block_scale=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(io_chunk=0)


def test_scaled_floors_at_one_chunk():
    cfg = default_cluster(scale=1 / 1024)
    assert cfg.scaled(1) == cfg.io_chunk
    assert cfg.scaled(1024 * GB) == 1 * GB


def test_sim_block_size():
    cfg = default_cluster()
    assert cfg.sim_block_size == int(134_217_728 * cfg.block_scale)
    tiny = dataclasses.replace(cfg, block_scale=1e-6)
    assert tiny.sim_block_size == cfg.io_chunk  # floored


def test_with_storage_swaps_profile():
    cfg = default_cluster().with_storage(SSD_PROFILE)
    assert cfg.storage is SSD_PROFILE
    assert cfg.n_workers == 8


@pytest.mark.parametrize("data, field", [
    ({"nic_bandwidth": 0}, "nic_bandwidth"),
    ({"nic_bandwidth": _NAN}, "nic_bandwidth"),
    ({"nic_bandwidth": _INF}, "nic_bandwidth"),
    ({"read_window": 0}, "read_window"),
    ({"write_window": 0}, "write_window"),
    ({"alloc_memory_per_node": 4 * GB}, "alloc_memory_per_node"),
    ({"yarn": {"reduce_task_memory": 32 * GB}}, "alloc_memory_per_node"),
    ({"cores_per_node": 1, "yarn": {"reduce_task_vcores": 2}}, "cores_per_node"),
    ({"yarn": {"map_task_memory": 0}}, "map_task_memory"),
    ({"yarn": {"reduce_task_memory": -1}}, "reduce_task_memory"),
    ({"yarn": {"map_task_vcores": 0}}, "map_task_vcores"),
    ({"yarn": {"reduce_task_vcores": 0}}, "reduce_task_vcores"),
    ({"yarn": {"dfs_replication": 0}}, "dfs_replication"),
    ({"yarn": {"dfs_block_size": 0}}, "dfs_block_size"),
    ({"yarn": {"max_task_attempts": 0}}, "max_task_attempts"),
    # Only a non-negative int seeds the streams; anything else would be
    # truncated or fail only once the run starts.
    ({"seed": 7.9}, "seed"),
    ({"seed": -3}, "seed"),
    ({"seed": "12"}, "seed"),
    ({"seed": True}, "seed"),
])
def test_cluster_rejects_bad_field_naming_it(data, field):
    with pytest.raises(ValueError, match=field):
        ClusterConfig.from_dict(data)
