"""Theory-backed invariants of the SFQ family.

SFQ's fairness theorem bounds the normalised service gap of two
continuously backlogged flows by one maximum-cost request per flow;
SFQ(D) relaxes the bound by the dispatch depth.  These tests check the
bound against the implementation over randomized workloads, and that
SFQ(D2)'s integral controller (§4, Eq. 1) settles latency around
``Lref`` under a steady load.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MB, StorageProfile, default_cluster
from repro.core import IOClass, IORequest, IOTag, SFQD2Scheduler, SFQDScheduler
from repro.experiments.harness import controller_for
from repro.simcore import Simulator
from repro.storage import StorageDevice
from repro.telemetry import DEPTH_CHANGED, REQUEST_COMPLETED

FCFS = StorageProfile(name="f", peak_rate=100.0 * MB, n_half=0.5,
                      discipline="fcfs")


def closed_loop(sim, sched, app, weight, nbytes, streams):
    def stream():
        while True:
            req = IORequest(sim, IOTag(app, weight), "read", nbytes,
                            IOClass.PERSISTENT)
            yield sched.submit(req)

    for _ in range(streams):
        sim.process(stream())


@settings(max_examples=25, deadline=None)
@given(
    wa=st.floats(min_value=0.5, max_value=16.0),
    wb=st.floats(min_value=0.5, max_value=16.0),
    depth=st.integers(min_value=1, max_value=6),
    size_mb=st.integers(min_value=1, max_value=4),
)
def test_property_sfq_fairness_bound(wa, wb, depth, size_mb):
    """|S_a/w_a − S_b/w_b| ≤ (D+1)·(c_a/w_a + c_b/w_b) for backlogged
    flows (Goyal's bound with the SFQ(D) relaxation)."""
    sim = Simulator()
    dev = StorageDevice(sim, FCFS)
    sched = SFQDScheduler(sim, dev, depth=depth)
    nbytes = size_mb * MB
    closed_loop(sim, sched, "a", wa, nbytes, streams=depth + 2)
    closed_loop(sim, sched, "b", wb, nbytes, streams=depth + 2)
    sim.run(until=5.0)
    sa = sched.stats.service_by_app.get("a", 0.0)
    sb = sched.stats.service_by_app.get("b", 0.0)
    if sa + sb < 20 * MB:
        return  # not enough service to exercise the bound
    gap = abs(sa / wa - sb / wb)
    bound = (depth + 1) * (nbytes / wa + nbytes / wb)
    assert gap <= bound + 1e-6


@settings(max_examples=15, deadline=None)
@given(depth=st.integers(min_value=1, max_value=8))
def test_property_work_conservation(depth):
    """The device is never idle while the scheduler holds requests."""
    sim = Simulator()
    dev = StorageDevice(sim, FCFS)
    sched = SFQDScheduler(sim, dev, depth=depth)
    violations = []

    def check():
        if sched.queued > 0 and dev.in_flight == 0:
            violations.append(sim.now)

    # request_completed is published before the scheduler re-dispatches,
    # so probe one (zero-delay) event later, after _on_complete has run.
    sched.telemetry.subscribe(REQUEST_COMPLETED, lambda ev: sim.call_in(0.0, check))
    for i in range(40):
        req = IORequest(sim, IOTag(f"app{i % 3}", 1.0 + i % 4), "read",
                        1 * MB, IOClass.PERSISTENT)
        sched.submit(req)
    sim.run()
    assert not violations
    assert sched.stats.total_requests == 40


def test_sfq_bound_tightens_with_depth_one():
    """At D=1 the realised split of two equal-demand backlogged flows
    with 3:1 weights stays within one request of 3:1 at all times."""
    sim = Simulator()
    dev = StorageDevice(sim, FCFS)
    sched = SFQDScheduler(sim, dev, depth=1)
    closed_loop(sim, sched, "hi", 3.0, 1 * MB, streams=4)
    closed_loop(sim, sched, "lo", 1.0, 1 * MB, streams=4)
    worst = 0.0

    def watch(ev):
        nonlocal worst
        hi = sched.stats.service_by_app.get("hi", 0.0)
        lo = sched.stats.service_by_app.get("lo", 0.0)
        if hi + lo > 10 * MB:
            worst = max(worst, abs(hi / 3.0 - lo / 1.0))

    sched.telemetry.subscribe(REQUEST_COMPLETED, watch)
    sim.run(until=4.0)
    assert worst <= 2 * (1 * MB / 3.0 + 1 * MB)


def test_weights_only_relative_values_matter():
    """Scaling all weights by a constant must not change the schedule."""
    def run(scale):
        sim = Simulator()
        dev = StorageDevice(sim, FCFS)
        sched = SFQDScheduler(sim, dev, depth=2)
        closed_loop(sim, sched, "a", 2.0 * scale, 1 * MB, streams=3)
        closed_loop(sim, sched, "b", 1.0 * scale, 1 * MB, streams=3)
        sim.run(until=3.0)
        return (sched.stats.service_by_app["a"],
                sched.stats.service_by_app["b"])

    assert run(1.0) == run(100.0)


@settings(max_examples=6, deadline=None)
@given(streams=st.integers(min_value=8, max_value=64))
def test_property_sfqd2_latency_settles_around_lref(streams):
    """Closed-loop 4 MB reads on the HDD with the §4-calibrated
    controller, more streams than the depth at the knee: after a
    10-period warm-up every period's mean latency lies within 25% of
    ``Lref``, D stays off both clamps, and — the integral controller's
    identity Σ(Lref − L(k)) = ΔD / K — the settled periods' mean latency
    is within (d_max − d_min) / (K · periods) of ``Lref``.  Reads only:
    writes start flush storms, which pin D at d_min by design."""
    config = default_cluster()
    ctrl = controller_for(config)
    lref = ctrl.ref_latency_read
    sim = Simulator()
    sched = SFQD2Scheduler(sim, StorageDevice(sim, config.storage), ctrl)
    periods = []
    sched.telemetry.subscribe(DEPTH_CHANGED, periods.append, source=sched.name)
    closed_loop(sim, sched, "reader", 1.0, 4 * MB, streams=streams)
    sim.run(until=120.0)
    settled = periods[10:]
    assert len(settled) >= 100
    for period in settled:
        assert abs(period.latency - lref) <= 0.25 * lref, period
        assert ctrl.d_min < period.depth < ctrl.d_max, period
    mean = sum(p.latency for p in settled) / len(settled)
    assert abs(mean - lref) <= (ctrl.d_max - ctrl.d_min) / (
        ctrl.gain * len(settled))
