"""Unit tests for the SFQ(D2) depth controller and scheduler."""

import pytest

from repro.config import MB, StorageProfile
from repro.core import DepthController, IOClass, IORequest, IOTag, SFQD2Scheduler
from repro.simcore import FaultError, Simulator
from repro.storage import StorageDevice
from repro.telemetry import DEPTH_CHANGED, TimeSeriesSink

KNEE = StorageProfile(name="knee", peak_rate=100.0 * MB, n_half=1.0)


def make_controller(**kw):
    defaults = dict(ref_latency_read=0.05, ref_latency_write=0.05, gain=50.0)
    defaults.update(kw)
    return DepthController(**defaults)


def depth_series(sched):
    """Per-period D, from the scheduler's ``depth_changed`` events."""
    return TimeSeriesSink(sched.telemetry, DEPTH_CHANGED, source=sched.name,
                          value=lambda ev: ev.depth).series


def latency_series(sched):
    """Per-period mean latency, over periods that completed something."""
    return TimeSeriesSink(sched.telemetry, DEPTH_CHANGED, source=sched.name,
                          value=lambda ev: ev.latency,
                          when=lambda ev: ev.samples > 0).series


def submit(sim, sched, app, weight, op="read", nbytes=2 * MB):
    req = IORequest(sim, IOTag(app, weight), op, nbytes, IOClass.PERSISTENT)
    sched.submit(req)
    return req


# ------------------------------------------------------------- controller
def test_controller_validation():
    with pytest.raises(ValueError):
        make_controller(ref_latency_read=0.0)
    with pytest.raises(ValueError):
        make_controller(gain=-1.0)
    with pytest.raises(ValueError):
        make_controller(period=0.0)
    with pytest.raises(ValueError):
        DepthController(
            ref_latency_read=0.1, ref_latency_write=0.1, d_min=4, d_max=2, d_init=3
        )


def test_controller_raises_depth_when_latency_low():
    c = make_controller(gain=50.0)
    d = c.update(4.0, reads=[0.01, 0.01], writes=[])
    # error = 0.05 - 0.01 = 0.04 -> +2 depth
    assert d == pytest.approx(6.0)


def test_controller_lowers_depth_when_latency_high():
    c = make_controller(gain=50.0)
    d = c.update(8.0, reads=[0.15], writes=[0.15])
    # error = 0.05 - 0.15 = -0.1 -> -5 depth
    assert d == pytest.approx(3.0)


def test_controller_clamps_to_bounds():
    c = make_controller(gain=1000.0)
    assert c.update(6.0, reads=[10.0], writes=[]) == c.d_min
    assert c.update(6.0, reads=[1e-9], writes=[]) == c.d_max


def test_controller_holds_depth_on_idle_period():
    c = make_controller()
    assert c.update(5.5, reads=[], writes=[]) == 5.5


def test_controller_blends_read_write_references():
    """With split references, the target tracks the observed mix (§4)."""
    c = DepthController(
        ref_latency_read=0.02, ref_latency_write=0.10, gain=50.0, d_init=6.0
    )
    # All-read period at exactly the read reference: no movement.
    assert c.update(6.0, reads=[0.02, 0.02], writes=[]) == pytest.approx(6.0)
    # All-write period at exactly the write reference: no movement.
    assert c.update(6.0, reads=[], writes=[0.10]) == pytest.approx(6.0)
    # Mixed 50/50 at the blended reference 0.06: no movement.
    assert c.update(6.0, reads=[0.06], writes=[0.06]) == pytest.approx(6.0)


def test_controller_symmetric_constructor():
    c = DepthController.symmetric(0.03, gain=10.0)
    assert c.ref_latency_read == c.ref_latency_write == 0.03


# -------------------------------------------------------------- scheduler
def test_sfqd2_depth_decreases_under_overload():
    """A heavy backlog drives latency above Lref; D must fall toward d_min."""
    sim = Simulator()
    dev = StorageDevice(sim, KNEE)
    ctrl = make_controller(gain=50.0, d_init=12.0, d_max=12.0)
    sched = SFQD2Scheduler(sim, dev, ctrl)
    depths, latencies = depth_series(sched), latency_series(sched)
    for _ in range(400):
        submit(sim, sched, "hog", 1.0, nbytes=2 * MB)
    sim.run(until=8.0)
    assert sched.depth < 12
    assert len(depths) >= 5
    assert len(latencies) >= 1


def test_sfqd2_depth_recovers_when_load_lightens():
    sim = Simulator()
    dev = StorageDevice(sim, KNEE)
    ctrl = make_controller(gain=100.0, d_init=8.0)
    sched = SFQD2Scheduler(sim, dev, ctrl)
    ts = depth_series(sched)

    def trickle():
        # One small request at a time: latency far below Lref.
        for _ in range(40):
            req = IORequest(sim, IOTag("light", 1.0), "read", 256 * 1024)
            yield sched.submit(req)
            yield sim.timeout(0.3)

    sim.process(trickle())
    sim.run()
    assert ts.values[-1] > ctrl.d_init  # controller pushed depth up


def test_sfqd2_simulation_drains_when_idle():
    """The control tick must stop re-arming once the scheduler is idle."""
    sim = Simulator()
    dev = StorageDevice(sim, KNEE)
    sched = SFQD2Scheduler(sim, dev, make_controller())
    submit(sim, sched, "a", 1.0)
    sim.run()  # would hang/raise if the tick re-armed forever
    assert sim.peek() == float("inf")


def test_sfqd2_admits_more_after_depth_increase():
    sim = Simulator()
    dev = StorageDevice(sim, KNEE)
    ctrl = make_controller(gain=400.0, d_init=1.0, d_max=12.0)
    sched = SFQD2Scheduler(sim, dev, ctrl)
    depths = depth_series(sched)
    for _ in range(50):
        submit(sim, sched, "a", 1.0, nbytes=1 * MB)
    assert dev.in_flight == 1
    sim.run(until=3.0)
    # Small requests at depth 1 are fast -> low latency -> D grows ->
    # more in flight.
    assert max(depths.values) > 1.0


def test_sfqd2_keeps_the_period_latency_window():
    """Each completed request's device latency, split by op, stays in
    the window until it is drained; the drain resets it."""
    sim = Simulator()
    dev = StorageDevice(sim, KNEE)
    sched = SFQD2Scheduler(sim, dev, make_controller(period=10.0))
    read = submit(sim, sched, "a", 5.0, nbytes=3 * MB)
    write = submit(sim, sched, "b", 1.0, op="write", nbytes=2 * MB)
    sim.run(until=5.0)  # both done, before the first control tick
    assert sched.window_read_latencies == [read.completion.value.latency]
    assert sched.window_write_latencies == [write.completion.value.latency]
    reads, writes = sched.drain_window()
    assert len(reads) == 1 and len(writes) == 1
    # Window is consumed.
    assert sched.drain_window() == ([], [])


def test_sfqd2_control_tick_takes_the_window_and_skips_failures():
    sim = Simulator()
    dev = StorageDevice(sim, KNEE)
    sched = SFQD2Scheduler(sim, dev, make_controller(period=1.0))
    samples = TimeSeriesSink(sched.telemetry, DEPTH_CHANGED,
                             source=sched.name, value=lambda ev: ev.samples)
    submit(sim, sched, "a", 1.0)
    submit(sim, sched, "a", 1.0, op="write")
    lost = submit(sim, sched, "a", 1.0)
    sim.run(until=0.01)
    dev.fail(FaultError("disk gone"))  # all three still in flight
    sim.run(until=0.02)
    assert lost.completion.processed and not lost.completion.ok
    assert sched.window_read_latencies == sched.window_write_latencies == []

    dev.repair()
    submit(sim, sched, "a", 1.0)
    submit(sim, sched, "a", 1.0, op="write")
    sim.run(until=0.5)
    assert len(sched.window_read_latencies) == 1
    assert len(sched.window_write_latencies) == 1
    sim.run(until=1.5)  # the first control tick, at t = 1
    assert samples.series.values[0] == 2
    assert sched.window_read_latencies == sched.window_write_latencies == []


def test_sfqd2_inherits_proportional_sharing():
    sim = Simulator()
    dev = StorageDevice(sim, KNEE)
    sched = SFQD2Scheduler(sim, dev, make_controller(d_init=4.0))
    for _ in range(150):
        submit(sim, sched, "big", 4.0, nbytes=1 * MB)
        submit(sim, sched, "small", 1.0, nbytes=1 * MB)
    sim.run(until=1.5)
    sb = sched.stats.service_by_app["big"]
    ss = sched.stats.service_by_app["small"]
    assert sb / ss == pytest.approx(4.0, rel=0.3)
