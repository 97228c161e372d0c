"""The request lifecycle state machine and its timestamps."""

import pytest

from repro.config import MB, StorageProfile
from repro.dataplane import (
    TRANSITIONS,
    IOClass,
    IORequest,
    IOTag,
    LifecycleError,
    RequestState,
)
from repro.core import SFQDScheduler
from repro.simcore import Simulator
from repro.storage import StorageDevice

FLAT = StorageProfile(name="flat", peak_rate=100.0 * MB, n_half=0.0)


def make_req(sim, app="a", op="read", nbytes=1 * MB):
    return IORequest(sim, IOTag(app, 1.0), op, nbytes, IOClass.PERSISTENT)


def test_new_request_is_submitted():
    sim = Simulator()
    req = make_req(sim)
    assert req.state is RequestState.SUBMITTED
    assert not req.state.terminal
    assert req.t_submitted == 0.0
    assert req.t_queued is None and req.t_dispatched is None
    assert req.t_finished is None


def test_dispatch_time_field_is_gone():
    sim = Simulator()
    req = make_req(sim)
    with pytest.raises(AttributeError):
        req.dispatch_time  # noqa: B018 - folded into t_dispatched


def test_happy_path_transitions_and_timestamps():
    sim = Simulator()
    req = make_req(sim)
    req.mark_queued(1.0, scheduler=None)
    assert req.state is RequestState.QUEUED and req.t_queued == 1.0
    req.mark_dispatched(3.0)
    assert req.state is RequestState.DISPATCHED and req.t_dispatched == 3.0
    req.mark_completed(7.5)
    assert req.state is RequestState.COMPLETED
    assert req.state.terminal
    assert req.queue_wait == pytest.approx(2.0)
    assert req.service_time == pytest.approx(4.5)
    assert (req.t_submitted, req.t_queued, req.t_dispatched,
            req.t_finished) == (0.0, 1.0, 3.0, 7.5)


def test_cancel_before_dispatch_records_wait():
    sim = Simulator()
    req = make_req(sim)
    req.mark_queued(1.0, scheduler=None)
    req.mark_cancelled(4.0)
    assert req.state is RequestState.CANCELLED
    assert req.queue_wait == pytest.approx(3.0)
    assert req.service_time == 0.0


def test_illegal_transitions_raise():
    sim = Simulator()
    req = make_req(sim)
    with pytest.raises(LifecycleError):
        req.mark_dispatched(0.0)  # SUBMITTED -> DISPATCHED skips QUEUED
    req.mark_queued(0.0, scheduler=None)
    with pytest.raises(LifecycleError):
        req.mark_completed(0.0)  # QUEUED -> COMPLETED skips DISPATCHED
    req.mark_dispatched(0.0)
    with pytest.raises(LifecycleError):
        req.mark_cancelled(0.0)  # dispatched requests run to completion
    req.mark_failed(1.0)
    for mark in (req.mark_queued, ):
        with pytest.raises(LifecycleError):
            mark(2.0, None)
    with pytest.raises(LifecycleError):
        req.mark_completed(2.0)  # terminal states are final


def test_transition_table_is_terminal_consistent():
    for state, targets in TRANSITIONS.items():
        assert state.terminal == (not targets)


def test_scheduler_walks_request_through_lifecycle():
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    sched = SFQDScheduler(sim, dev, depth=1)
    first = make_req(sim)
    second = make_req(sim)
    sched.submit(first)
    sched.submit(second)  # queued behind first at depth 1
    assert first.state is RequestState.DISPATCHED
    assert second.state is RequestState.QUEUED
    assert second._sched is sched
    sim.run()
    assert first.state is RequestState.COMPLETED
    assert second.state is RequestState.COMPLETED
    assert second.t_queued == 0.0
    assert second.t_dispatched > 0.0
    assert second.queue_wait == pytest.approx(
        second.t_dispatched - second.t_queued
    )
    assert second.service_time == pytest.approx(
        second.t_finished - second.t_dispatched
    )
