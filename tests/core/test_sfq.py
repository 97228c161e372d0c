"""Unit and property tests for SFQ(D)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MB, StorageProfile
from repro.core import IOClass, IORequest, IOTag, NativeScheduler, SFQDScheduler
from repro.simcore import Simulator
from repro.storage import StorageDevice
from repro.telemetry import REQUEST_COMPLETED

FLAT = StorageProfile(name="flat", peak_rate=100.0 * MB, n_half=0.0)


def make_stack(depth=1, profile=FLAT):
    sim = Simulator()
    dev = StorageDevice(sim, profile)
    sched = SFQDScheduler(sim, dev, depth=depth)
    return sim, dev, sched


def submit(sim, sched, app, weight, op="read", nbytes=4 * MB):
    req = IORequest(sim, IOTag(app, weight), op, nbytes, IOClass.PERSISTENT)
    sched.submit(req)
    return req


def test_depth_validation():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    with pytest.raises(ValueError):
        SFQDScheduler(sim, dev, depth=0)


def test_single_flow_fifo_order():
    sim, dev, sched = make_stack(depth=1)
    reqs = [submit(sim, sched, "a", 1.0, nbytes=1 * MB) for _ in range(5)]
    done_order = []
    for i, r in enumerate(reqs):
        r.completion.callbacks.append(lambda ev, i=i: done_order.append(i))
    sim.run()
    assert done_order == [0, 1, 2, 3, 4]


def test_start_and_finish_tags_monotone_per_flow():
    sim, dev, sched = make_stack(depth=1)
    reqs = [submit(sim, sched, "a", 2.0, nbytes=2 * MB) for _ in range(4)]
    for earlier, later in zip(reqs, reqs[1:]):
        assert later.start_tag >= earlier.finish_tag
        assert later.finish_tag == pytest.approx(later.start_tag + 1.0)  # 2MB/w2


def test_weighted_interleave_two_to_one():
    """With weights 2:1 and equal request sizes, the dispatch pattern gives
    flow A two dispatches per B dispatch."""
    sim, dev, sched = make_stack(depth=1)
    order = []
    for _ in range(6):
        r = submit(sim, sched, "A", 2.0, nbytes=1 * MB)
        r.completion.callbacks.append(lambda ev: order.append("A"))
    for _ in range(3):
        r = submit(sim, sched, "B", 1.0, nbytes=1 * MB)
        r.completion.callbacks.append(lambda ev: order.append("B"))
    sim.run()
    # In every prefix, A's completions should be >= B's (A has 2x priority
    # and arrived first); overall A gets 2 dispatches per B.
    counts = {"A": 0, "B": 0}
    for i, who in enumerate(order):
        counts[who] += 1
        assert counts["A"] >= counts["B"]
    assert counts == {"A": 6, "B": 3}


def test_proportional_service_under_backlog():
    """Two continuously backlogged flows with weights 3:1 receive service
    ~3:1 over any long window."""
    sim, dev, sched = make_stack(depth=2)
    n = 120
    for _ in range(n):
        submit(sim, sched, "heavy", 3.0, nbytes=1 * MB)
        submit(sim, sched, "light", 1.0, nbytes=1 * MB)
    # Run until ~half the requests are done, then inspect the split.
    sim.run(until=1.0)
    sh = sched.stats.service_by_app["heavy"]
    sl = sched.stats.service_by_app["light"]
    assert sh / sl == pytest.approx(3.0, rel=0.15)


def test_work_conserving_when_one_flow_empties():
    """After the favoured flow finishes, the other gets full bandwidth."""
    sim, dev, sched = make_stack(depth=1)
    submit(sim, sched, "fav", 10.0, nbytes=10 * MB)
    tail = [submit(sim, sched, "bg", 1.0, nbytes=10 * MB) for _ in range(3)]
    sim.run()
    # Everything completes; total time = 40MB / 100MB/s.
    assert all(t.completion.processed for t in tail)
    assert sim.now == pytest.approx(0.4)


def test_depth_limits_outstanding():
    sim, dev, sched = make_stack(depth=3)
    for _ in range(10):
        submit(sim, sched, "a", 1.0, nbytes=4 * MB)
    # Before any completion, exactly depth requests are at the device.
    assert dev.in_flight == 3
    assert sched.queued == 7
    sim.run()
    assert sched.queued == 0


def test_virtual_time_advances_with_dispatch():
    sim, dev, sched = make_stack(depth=1)
    assert sched.virtual_time == 0.0
    submit(sim, sched, "a", 1.0, nbytes=4 * MB)
    submit(sim, sched, "a", 1.0, nbytes=4 * MB)
    sim.run()
    assert sched.virtual_time == pytest.approx(4.0)  # second req start tag


def test_add_start_delay_defers_next_request():
    sim, dev, sched = make_stack(depth=1)
    # Flow B is delayed by 8 virtual-time units (cost of 8MB at weight 1).
    sched.add_start_delay("B", 8.0)
    a = submit(sim, sched, "A", 1.0, nbytes=4 * MB)
    b = submit(sim, sched, "B", 1.0, nbytes=4 * MB)
    a2 = submit(sim, sched, "A", 1.0, nbytes=4 * MB)
    order = []
    for tag, r in (("a", a), ("b", b), ("a2", a2)):
        r.completion.callbacks.append(lambda ev, t=tag: order.append(t))
    sim.run()
    assert order == ["a", "a2", "b"]  # B pushed behind both A requests


def test_add_start_delay_negative_rejected():
    sim, dev, sched = make_stack()
    with pytest.raises(ValueError):
        sched.add_start_delay("x", -1.0)


def test_delay_does_not_starve_forever():
    """max(v, F_prev + delay) bounds the penalty: once virtual time passes
    the delayed start tag, the flow is served again."""
    sim, dev, sched = make_stack(depth=1)
    sched.add_start_delay("B", 3.0)  # 3 MB-units of foreign service
    b = submit(sim, sched, "B", 1.0, nbytes=1 * MB)
    for _ in range(20):
        submit(sim, sched, "A", 1.0, nbytes=1 * MB)
    sim.run(until=b.completion)
    # B must complete well before all of A's 20 requests are done.
    assert sched.stats.service_by_app["A"] < 20 * MB


def test_native_scheduler_passthrough():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    sched = NativeScheduler(sim, dev)
    reqs = [
        submit(sim, sched, f"app{i}", 1.0, nbytes=4 * MB) for i in range(5)
    ]
    assert dev.in_flight == 5  # no admission control at all
    sim.run()
    assert all(r.completion.processed for r in reqs)
    assert sched.stats.total_requests == 5


def test_stats_account_bytes_and_weights():
    sim, dev, sched = make_stack(depth=2)
    submit(sim, sched, "a", 5.0, nbytes=3 * MB)
    submit(sim, sched, "b", 1.0, op="write", nbytes=2 * MB)
    sim.run()
    assert sched.stats.service_by_app["a"] == 3 * MB
    assert sched.stats.service_by_app["b"] == 2 * MB
    assert sched.stats.weight_by_app == {"a": 5.0, "b": 1.0}
    # One time-stamped sample per completed request, per (app, op).
    meters = sched.stats.meters
    assert sorted(meters) == [("a", "read"), ("b", "write")]
    assert meters["a", "read"].amounts == [3 * MB]
    assert meters["b", "write"].amounts == [2 * MB]


@pytest.mark.parametrize("make", [
    lambda sim, dev: NativeScheduler(sim, dev),
    lambda sim, dev: SFQDScheduler(sim, dev, depth=4),
], ids=["native", "sfqd"])
def test_schedulers_without_a_controller_keep_no_latency_per_request(make):
    """Only SFQ(D2)'s controller reads request latencies; a native or
    SFQ(D) scheduler holds no list that grows with its completions."""
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    sched = make(sim, dev)
    n = 50
    for i in range(n):
        submit(sim, sched, "a", 1.0, op=("read", "write")[i % 2], nbytes=MB)
    sim.run()
    assert sched.stats.total_requests == n
    grown = [
        name
        for obj in (sched, sched.stats)
        for name, value in vars(obj).items()
        if isinstance(value, list) and len(value) >= n // 2
    ]
    assert grown == []


def test_completion_and_submit_hooks_fire():
    sim, dev, sched = make_stack()
    seen = {"submit": 0, "complete": 0}
    sched.add_submit_hook(lambda req: seen.__setitem__("submit", seen["submit"] + 1))
    sched.telemetry.subscribe(
        REQUEST_COMPLETED,
        lambda ev: seen.__setitem__("complete", seen["complete"] + 1),
    )
    submit(sim, sched, "a", 1.0)
    sim.run()
    assert seen == {"submit": 1, "complete": 1}


# --------------------------------------------------------------- properties
@settings(max_examples=40, deadline=None)
@given(
    weights=st.tuples(
        st.floats(min_value=0.5, max_value=32.0),
        st.floats(min_value=0.5, max_value=32.0),
    ),
    depth=st.integers(min_value=1, max_value=8),
    nreq=st.integers(min_value=30, max_value=80),
)
def test_property_backlogged_service_tracks_weights(weights, depth, nreq):
    """SFQ's fairness bound: for continuously backlogged flows the byte
    split tracks the weight split within a few requests' slack."""
    wa, wb = weights
    sim, dev, sched = make_stack(depth=depth)
    for _ in range(nreq):
        submit(sim, sched, "A", wa, nbytes=1 * MB)
        submit(sim, sched, "B", wb, nbytes=1 * MB)
    horizon = (nreq * 1.0) / 100.0  # ~half the work at 100 MB/s
    sim.run(until=horizon)
    sa = sched.stats.service_by_app.get("A", 0.0) / MB
    sb = sched.stats.service_by_app.get("B", 0.0) / MB
    total = sa + sb
    if total < 10:  # not enough service to judge fairness
        return
    expected_a = total * wa / (wa + wb)
    # SFQ bound: discrepancy is O(depth + 1) requests of 1 MB each.
    assert abs(sa - expected_a) <= depth + 2.0


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=16), min_size=2, max_size=40),
    depth=st.integers(min_value=1, max_value=6),
)
def test_property_all_requests_complete_and_bytes_conserved(sizes, depth):
    """No request is ever lost or double-counted, whatever the arrival mix."""
    sim, dev, sched = make_stack(depth=depth)
    reqs = []
    for i, sz in enumerate(sizes):
        app = f"app{i % 3}"
        reqs.append(submit(sim, sched, app, 1.0 + (i % 2), nbytes=sz * MB))
    sim.run()
    assert all(r.completion.processed and r.completion.ok for r in reqs)
    assert sum(sched.stats.service_by_app.values()) == sum(sizes) * MB
    assert sched.stats.total_requests == len(sizes)


@settings(max_examples=30, deadline=None)
@given(depth=st.integers(min_value=1, max_value=8))
def test_property_outstanding_never_exceeds_depth(depth):
    sim, dev, sched = make_stack(depth=depth)
    max_seen = 0

    def watch(req):
        nonlocal max_seen
        max_seen = max(max_seen, dev.in_flight)

    sched.add_submit_hook(watch)
    for i in range(30):
        submit(sim, sched, f"a{i % 4}", 1.0, nbytes=2 * MB)
    sim.run()
    assert max_seen <= depth
