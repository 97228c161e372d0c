"""``Simulator.start`` and ``Join``: processes started one by one.

The AppMaster and the reducer used to create every task or fetch
process up front, park each on its first wait, and later join them all
with ``sim.all_of``.  They now keep a parked one as a small record,
start its process synchronously (``sim.start``) when the wait ends, and
join the processes with a :class:`Join` armed where the ``all_of`` was
built.  The property test runs both shapes on generated programs and
requires the same trace: every resume, the settle time and outcome, the
collateral counters, any error ``run`` raises, and the number of queued
events.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import (
    FaultError,
    RequestCancelled,
    SimulationError,
    Simulator,
)
from repro.simcore.engine import _TRIGGERED

#: exact ties between starts, steps and the arming moment are common
STARTS = (0.0, 0.5, 1.0, 2.0, 3.0)
STEPS = (0.0, 0.5, 1.0)
ARMS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
OUTCOMES = {
    "ok": None,
    "fault": FaultError,
    "cancelled": RequestCancelled,
    "bug": ValueError,  # a model error: raised by run() when unjoined
}

_proc = st.tuples(
    st.sampled_from(STARTS),
    st.lists(st.sampled_from(STEPS), max_size=2),
    st.sampled_from(tuple(OUTCOMES)),
)


def _body(sim, trace, ident, steps, outcome):
    """The work of one process after its wait: steps, then an outcome."""
    trace.append((sim.now, ident, "run"))
    for delay in steps:
        yield sim.timeout(delay)
        trace.append((sim.now, ident, "step"))
    trace.append((sim.now, ident, outcome))
    if OUTCOMES[outcome] is not None:
        raise OUTCOMES[outcome](f"p{ident}")
    return ident


def _observer(sim, trace, arm_at, wait):
    yield sim.timeout(arm_at)
    try:
        yield wait()
        trace.append((sim.now, "settled", "ok"))
    except Exception as exc:  # the outcome is the point
        trace.append((sim.now, "settled", type(exc).__name__, str(exc)))


def _drive(sim, trace):
    try:
        sim.run()
        raised = None
    except Exception as exc:  # compared between the two shapes
        raised = (type(exc).__name__, str(exc), sim.now)
    return (trace, raised, sim.orphaned_faults, sim.cancelled_collateral,
            sim._queue._seq)


def _all_of_run(procs, arm_at):
    """The old shape: every process exists from the start and parks on
    its first wait; ``all_of`` over them is built at ``arm_at``."""
    sim = Simulator()
    trace = []

    def parked(ident, start, steps, outcome):
        yield sim.timeout(start)
        yield from _body(sim, trace, ident, steps, outcome)

    made = [(start, i, sim.process(parked(i, start, steps, outcome)))
            for i, (start, steps, outcome) in enumerate(procs)]
    # The order in which the new shape starts them.
    in_start_order = [proc for _s, _i, proc in sorted(made, key=lambda m: m[:2])]
    sim.process(_observer(sim, trace, arm_at,
                          lambda: sim.all_of(in_start_order)))
    return _drive(sim, trace)


class _Parked:
    """A parked process as a record: queued where the process's start
    record stood, it makes the first wait when popped and starts the
    process synchronously when that wait ends."""

    __slots__ = ("sim", "join", "trace", "ident", "start", "steps", "outcome")
    _state = _TRIGGERED

    def __init__(self, sim, join, trace, ident, start, steps, outcome):
        self.sim, self.join, self.trace = sim, join, trace
        self.ident, self.start, self.steps, self.outcome = (
            ident, start, steps, outcome)

    def _process(self):
        self.sim.timeout(self.start).callbacks.append(self)

    def __call__(self, _ev):
        self.join.add(self.sim.start(
            _body(self.sim, self.trace, self.ident, self.steps, self.outcome)))


def _join_run(procs, arm_at):
    """The new shape: records, synchronous starts and a ``Join``."""
    sim = Simulator()
    trace = []
    join = sim.join()
    for i, (start, steps, outcome) in enumerate(procs):
        sim._queue._seq += 1
        sim._now_q.append(_Parked(sim, join, trace, i, start, steps, outcome))
    sim.process(_observer(sim, trace, arm_at, lambda: join.arm(len(procs))))
    return _drive(sim, trace)


@settings(max_examples=300, deadline=None)
@given(procs=st.lists(_proc, min_size=1, max_size=8),
       arm_at=st.sampled_from(ARMS))
def test_join_of_started_processes_matches_all_of_over_parked_ones(procs, arm_at):
    assert _join_run(procs, arm_at) == _all_of_run(procs, arm_at)


def test_a_pre_arming_failure_fails_the_join_at_arming():
    """Two processes fail before arming (counted as fault collateral,
    since nobody joins them yet); arming fails with the first of them
    in creation order, although the second was processed first."""
    procs = [(0.0, [1.0], "fault"), (0.0, [0.5], "cancelled"), (0.0, [], "ok")]
    new = _join_run(procs, arm_at=2.0)
    assert new == _all_of_run(procs, arm_at=2.0)
    trace, raised, orphaned, collateral, _seq = new
    assert trace[-1] == (2.0, "settled", "FaultError", "p0")
    assert (raised, orphaned, collateral) == (None, 1, 1)


def test_a_settled_join_detaches_from_the_rest():
    """Once the join fails, a later failure of another process has no
    joiner and is counted as collateral, as after ``all_of``."""
    procs = [(0.0, [1.0], "fault"), (0.0, [2.0], "cancelled"),
             (3.0, [], "cancelled")]
    new = _join_run(procs, arm_at=0.5)
    assert new == _all_of_run(procs, arm_at=0.5)
    _trace, raised, orphaned, collateral, _seq = new
    assert (raised, orphaned, collateral) == (None, 0, 2)


def test_join_holds_only_processes_not_yet_processed():
    """Before arming the join keeps unprocessed processes and processed
    failures; from arming on only unprocessed ones; settled, none."""
    sim = Simulator()
    join = sim.join()
    trace = []
    started = []
    plan = [(0.0, [1.0], "ok"), (0.0, [2.0], "fault"), (0.0, [4.0], "ok"),
            (0.0, [6.0], "ok")]

    def start_all():
        for i, (_start, steps, outcome) in enumerate(plan):
            proc = sim.start(_body(sim, trace, i, steps, outcome))
            join.add(proc)
            started.append(proc)

    sim.call_in(0.0, start_all)
    sim.run(until=3.0)
    # p0 processed ok: dropped; p1's failure stays for the arming walk.
    assert list(join._events) == started[1:]
    assert sim.orphaned_faults == 1
    join.arm(len(plan))
    assert join._events == {}
    assert join.triggered and isinstance(join.exception, FaultError)
    sim.run()
    assert [p.processed for p in started] == [True] * 4


def test_armed_join_drops_each_process_as_it_is_processed():
    sim = Simulator()
    join = sim.join()
    procs = []

    def start(delay):
        proc = sim.start(_body(sim, [], len(procs), [delay], "ok"))
        join.add(proc)
        procs.append(proc)

    for delay in (1.0, 2.0, 3.0):
        start(delay)
    join.arm(3)
    sim.run(until=1.5)
    assert list(join._events) == procs[1:]
    sim.run(until=2.5)
    assert list(join._events) == procs[2:]
    sim.run()
    assert join.processed and join.ok and join._events == {}


def test_join_armed_with_everything_done_succeeds_at_once():
    sim = Simulator()
    join = sim.join()
    join.add(sim.process(_body(sim, [], 0, [], "ok")))
    sim.run()
    assert join.arm(1).triggered and join.ok
    with pytest.raises(SimulationError, match="armed twice"):
        join.arm(1)


def test_start_runs_the_first_step_inside_the_caller():
    """``sim.start`` queues nothing: the first step runs before it
    returns, where ``sim.process`` would queue a start record."""
    sim = Simulator()
    log = []

    def gen():
        log.append(("first", sim.now))
        yield sim.timeout(1.0)
        log.append(("second", sim.now))

    seq = sim._queue._seq
    proc = sim.start(gen())
    assert log == [("first", 0.0)]
    assert sim._queue._seq == seq + 1  # only the timeout was pushed
    sim.run()
    assert log == [("first", 0.0), ("second", 1.0)] and proc.ok
