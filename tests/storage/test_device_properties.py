"""Property-based tests for the storage device: conservation and
ordering invariants that must hold for any request mix, in both
service disciplines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MB, StorageProfile
from repro.simcore import Simulator
from repro.storage import StorageDevice
from tests.device_events import submit


def make_profile(discipline, n_half=0.8, write_cost=1.0, overhead=0.0):
    return StorageProfile(
        name=f"p-{discipline}",
        peak_rate=100.0 * MB,
        n_half=n_half,
        write_cost=write_cost,
        request_overhead=overhead,
        discipline=discipline,
    )


@settings(max_examples=40, deadline=None)
@given(
    discipline=st.sampled_from(["ps", "fcfs"]),
    sizes=st.lists(st.integers(min_value=1, max_value=32), min_size=1,
                   max_size=30),
    ops=st.data(),
)
def test_property_all_bytes_serviced_exactly_once(discipline, sizes, ops):
    sim = Simulator()
    dev = StorageDevice(sim, make_profile(discipline))
    op_list = [ops.draw(st.sampled_from(["read", "write"])) for _ in sizes]
    events = [submit(dev, op, sz * MB) for op, sz in zip(op_list, sizes)]
    sim.run()
    assert all(ev.processed and ev.ok for ev in events)
    expect_read = sum(sz for op, sz in zip(op_list, sizes) if op == "read")
    expect_write = sum(sz for op, sz in zip(op_list, sizes) if op == "write")
    assert dev.read_meter.total == expect_read * MB
    assert dev.write_meter.total == expect_write * MB


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=16), min_size=2,
                   max_size=20),
)
def test_property_fcfs_completion_order_is_arrival_order(sizes):
    sim = Simulator()
    dev = StorageDevice(sim, make_profile("fcfs"))
    order = []
    for i, sz in enumerate(sizes):
        ev = submit(dev, "read", sz * MB)
        ev.callbacks.append(lambda _e, i=i: order.append(i))
    sim.run()
    assert order == list(range(len(sizes)))


@settings(max_examples=30, deadline=None)
@given(
    discipline=st.sampled_from(["ps", "fcfs"]),
    sizes=st.lists(st.integers(min_value=1, max_value=16), min_size=1,
                   max_size=15),
)
def test_property_makespan_bounded_by_rate_curve(discipline, sizes):
    """Total time is at least total_work/peak and at most total_work/W(1)."""
    sim = Simulator()
    profile = make_profile(discipline, n_half=1.0)
    dev = StorageDevice(sim, profile)
    for sz in sizes:
        submit(dev, "read", sz * MB)
    sim.run()
    work = sum(sizes) * MB
    assert sim.now >= work / profile.peak_rate - 1e-9
    assert sim.now <= work / profile.rate_at(1) + 1e-6


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    discipline=st.sampled_from(["ps", "fcfs"]),
)
def test_property_equal_batch_finishes_at_rate_curve_prediction(n, discipline):
    """n identical requests admitted together: the batch drains exactly
    as fast as the (piecewise) aggregate rate predicts — the disciplines
    differ only in who finishes when, not in total work per second."""
    sim = Simulator()
    profile = make_profile(discipline, n_half=1.0)
    dev = StorageDevice(sim, profile)
    for _ in range(n):
        submit(dev, "read", 10 * MB)
    sim.run()
    # Piecewise: while k requests remain, the device runs at W(k).
    expected = 0.0
    if discipline == "ps":
        # Equal sharing: all n complete together at W(n) throughout.
        expected = n * 10 * MB / profile.rate_at(n)
    else:
        remaining = n
        while remaining > 0:
            expected += 10 * MB / profile.rate_at(remaining)
            remaining -= 1
    assert sim.now == pytest.approx(expected, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(write_cost=st.floats(min_value=1.0, max_value=5.0))
def test_property_write_cost_scales_latency_linearly(write_cost):
    sim = Simulator()
    dev = StorageDevice(sim, make_profile("fcfs", n_half=0.0,
                                          write_cost=write_cost))
    ev = submit(dev, "write", 10 * MB)
    sim.run()
    assert ev.value.latency == pytest.approx(0.1 * write_cost)
