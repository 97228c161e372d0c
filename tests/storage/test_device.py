"""Unit tests for the processor-sharing storage device."""

import pytest

from repro.config import MB, StorageProfile
from repro.simcore import Simulator
from repro.storage import StorageDevice
from repro.telemetry import FLUSH_SPIKE, TelemetryBus
from tests.device_events import submit

# A deliberately simple profile: no overhead, no knee, no storms —
# W(n) = 100 MB/s flat, so analytic latencies are exact.
FLAT = StorageProfile(name="flat", peak_rate=100.0 * MB, n_half=0.0)

KNEE = StorageProfile(name="knee", peak_rate=100.0 * MB, n_half=1.0)


def _run_io(sim, dev, op, nbytes):
    def proc():
        done = yield submit(dev, op, nbytes)
        return done

    return sim.process(proc())


def test_single_request_latency_is_size_over_rate():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    done = sim.run(until=_run_io(sim, dev, "read", 100 * MB))
    assert done.latency == pytest.approx(1.0)
    assert done.op == "read"
    assert done.nbytes == 100 * MB


def test_two_equal_requests_share_bandwidth():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    p1 = _run_io(sim, dev, "read", 50 * MB)
    p2 = _run_io(sim, dev, "read", 50 * MB)
    sim.run()
    # 100 MB total work at 100 MB/s, equal sharing: both finish at t=1.
    assert p1.value.latency == pytest.approx(1.0)
    assert p2.value.latency == pytest.approx(1.0)


def test_short_request_finishes_first_under_sharing():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    long = _run_io(sim, dev, "read", 90 * MB)
    short = _run_io(sim, dev, "read", 10 * MB)
    sim.run()
    # Shared 50 MB/s each until short finishes at t=0.2; long then runs
    # alone: 80 MB left at 100 MB/s -> finishes at t=1.0.
    assert short.value.latency == pytest.approx(0.2)
    assert long.value.latency == pytest.approx(1.0)


def test_late_arrival_shares_remaining_service():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    first = _run_io(sim, dev, "read", 100 * MB)

    def late():
        yield sim.timeout(0.5)
        done = yield submit(dev, "read", 25 * MB)
        return sim.now, done.latency

    p = sim.process(late())
    sim.run()
    # t=0.5: first has 50 MB left. Shared: each gets 50 MB/s. The late
    # 25 MB finishes at t=1.0; first's last 25MB then at full rate: t=1.25.
    t_done, lat = p.value
    assert t_done == pytest.approx(1.0)
    assert lat == pytest.approx(0.5)
    assert first.value.latency == pytest.approx(1.25)


def test_throughput_saturates_with_concurrency():
    """W(1) = 50 MB/s, W(4) = 80 MB/s for the KNEE profile."""

    def total_time(n_requests):
        sim = Simulator()
        dev = StorageDevice(sim, KNEE)
        procs = [_run_io(sim, dev, "read", 100 * MB // n_requests) for _ in range(n_requests)]
        sim.run()
        assert all(p.processed for p in procs)
        return sim.now

    t1 = total_time(1)
    t4 = total_time(4)
    assert t1 == pytest.approx(2.0)    # 100 MB at 50 MB/s
    assert t4 == pytest.approx(1.25)   # 100 MB at 80 MB/s


def test_latency_grows_with_concurrency():
    def one_latency(n_background):
        sim = Simulator()
        dev = StorageDevice(sim, KNEE)
        for _ in range(n_background):
            _run_io(sim, dev, "read", 500 * MB)
        probe = _run_io(sim, dev, "read", 10 * MB)
        sim.run(until=probe)
        return probe.value.latency

    lat_quiet = one_latency(0)
    lat_busy = one_latency(8)
    assert lat_busy > 4 * lat_quiet


def test_write_cost_asymmetry():
    ssd_like = StorageProfile(
        name="s", peak_rate=100.0 * MB, n_half=0.0, write_cost=4.0
    )
    sim = Simulator()
    dev = StorageDevice(sim, ssd_like)
    w = _run_io(sim, dev, "write", 10 * MB)
    sim.run()
    # 10 MB * 4 work at 100 MB/s -> 0.4 s (vs 0.1 s for a read).
    assert w.value.latency == pytest.approx(0.4)


def test_request_overhead_adds_fixed_work():
    prof = StorageProfile(
        name="o", peak_rate=100.0 * MB, n_half=0.0, request_overhead=10.0 * MB
    )
    sim = Simulator()
    dev = StorageDevice(sim, prof)
    r = _run_io(sim, dev, "read", 10 * MB)
    sim.run()
    assert r.value.latency == pytest.approx(0.2)


def test_meters_account_all_bytes():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    _run_io(sim, dev, "read", 30 * MB)
    _run_io(sim, dev, "write", 20 * MB)
    sim.run()
    assert dev.read_meter.total == 30 * MB
    assert dev.write_meter.total == 20 * MB
    assert dev.completed_requests == 2


def test_invalid_submissions_rejected():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    with pytest.raises(ValueError):
        submit(dev, "append", 10)
    with pytest.raises(ValueError):
        submit(dev, "read", 0)


def test_flush_storm_degrades_service():
    prof = StorageProfile(
        name="storm",
        peak_rate=100.0 * MB,
        n_half=0.0,
        flush_threshold=50.0 * MB,
        flush_duration=2.0,
        flush_factor=0.5,
    )
    sim = Simulator()
    dev = StorageDevice(sim, prof)

    def proc():
        # Crossing the 50 MB threshold triggers a storm immediately.
        yield submit(dev, "write", 50 * MB)
        t_mid = sim.now
        done = yield submit(dev, "read", 75 * MB)
        return t_mid, done.latency, sim.now

    p = sim.process(proc())
    sim.run()
    t_mid, read_latency, t_done = p.value
    # The storm begins at submit of the threshold-crossing write, so the
    # write runs at 50 MB/s: done at t=1.0.
    assert t_mid == pytest.approx(1.0)
    # Storm lasts until t=2.0; the read gets 50 MB during [1,2] at the
    # storm rate, then its last 25 MB at the full 100 MB/s: 0.25 s more.
    assert read_latency == pytest.approx(1.25)
    assert t_done == pytest.approx(2.25)


def test_storm_inactive_when_threshold_disabled():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    _run_io(sim, dev, "write", 500 * MB)
    sim.run()
    # No storm slowed the write: 500 MB at the full 100 MB/s.
    assert sim.now == pytest.approx(5.0)


def test_flush_spike_published_on_telemetry_bus():
    prof = StorageProfile(
        name="storm",
        peak_rate=100.0 * MB,
        n_half=0.0,
        flush_threshold=50.0 * MB,
        flush_duration=2.0,
        flush_factor=0.5,
    )
    sim = Simulator()
    bus = TelemetryBus()
    spikes = []
    bus.subscribe(FLUSH_SPIKE, spikes.append, source="flushy")
    dev = StorageDevice(sim, prof, name="flushy", telemetry=bus)
    _run_io(sim, dev, "write", 50 * MB)
    sim.run()
    assert len(spikes) == 1
    (spike,) = spikes
    assert spike.source == "flushy"
    assert spike.until == pytest.approx(spike.t + 2.0)
    assert spike.factor == pytest.approx(0.5)


def test_no_flush_spike_without_subscriber_or_threshold():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)  # default bus, nobody listening
    _run_io(sim, dev, "write", 500 * MB)
    sim.run()
    assert not dev.telemetry.publishes(FLUSH_SPIKE)


def test_many_concurrent_requests_complete_and_conserve_work():
    sim = Simulator()
    dev = StorageDevice(sim, KNEE)
    procs = [_run_io(sim, dev, "read", 5 * MB) for _ in range(50)]
    sim.run()
    assert all(p.processed and p.ok for p in procs)
    assert dev.read_meter.total == 250 * MB
    # 250 MB work at <=100 MB/s: must take at least 2.5 s.
    assert sim.now >= 2.5


# ------------------------------------------------- fault injection hooks

def test_rate_factor_scales_service():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    dev.set_rate_factor(0.5)
    r = _run_io(sim, dev, "read", 50 * MB)
    sim.run()
    assert r.value.latency == pytest.approx(1.0)  # 50 MB at 50 MB/s


def test_rate_factor_change_mid_flight():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    r = _run_io(sim, dev, "read", 100 * MB)
    sim.call_at(0.5, lambda: dev.set_rate_factor(0.5))
    sim.run()
    # 50 MB served by t=0.5, the rest at 50 MB/s: done at t=1.5.
    assert r.value.latency == pytest.approx(1.5)


def test_rate_factor_validation():
    dev = StorageDevice(Simulator(), FLAT)
    with pytest.raises(ValueError):
        dev.set_rate_factor(0.0)
    with pytest.raises(ValueError):
        dev.set_rate_factor(-1.0)


def test_fail_errors_inflight_and_new_requests():
    from repro.faults import DeviceFailure
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    caught = []

    def proc(nbytes):
        try:
            yield submit(dev, "read", nbytes)
        except DeviceFailure:
            caught.append(sim.now)

    sim.process(proc(100 * MB))
    sim.call_at(0.5, lambda: dev.fail(DeviceFailure("dead")))
    sim.run()
    assert caught == [0.5]          # in-flight request errored at failure
    assert dev.failed
    t_resubmit = sim.now
    sim.process(proc(1 * MB))       # new submissions fail immediately
    sim.run()
    assert caught == [0.5, t_resubmit]


def test_repair_restores_service():
    from repro.faults import DeviceFailure
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    dev.fail(DeviceFailure("dead"))
    sim.call_at(1.0, dev.repair)

    def proc():
        yield sim.timeout(2.0)
        done = yield submit(dev, "read", 100 * MB)
        return done.latency

    p = sim.process(proc())
    sim.run()
    assert not dev.failed
    assert p.value == pytest.approx(1.0)  # full rate after repair
