"""Unit tests for the discrete-event engine."""

import pytest

from repro.simcore import Interrupt, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return sim.now

    p = sim.process(proc())
    assert sim.run(until=p) == 5.0
    assert sim.now == 5.0


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run(until=sim.process(proc())) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.timeout(NAN),
    lambda sim: sim.timeout(INF),
    lambda sim: sim.call_at(NAN, lambda: None),
    lambda sim: sim.call_at(INF, lambda: None),
    lambda sim: sim.call_in(NAN, lambda: None),
    lambda sim: sim.event().succeed(delay=NAN),
    lambda sim: sim.event().succeed(delay=-1.0),
    lambda sim: sim.event().succeed(delay=INF),
    lambda sim: sim.event().fail(RuntimeError("x"), delay=NAN),
    lambda sim: sim.event().fail(RuntimeError("x"), delay=-1.0),
], ids=["timeout-nan", "timeout-inf", "call_at-nan", "call_at-inf",
        "call_in-nan", "succeed-nan", "succeed-negative",
        "succeed-inf", "fail-nan", "fail-negative"])
def test_non_finite_or_negative_time_rejected(schedule):
    sim = Simulator()
    with pytest.raises(SimulationError):
        schedule(sim)
    assert sim.peek() == INF  # nothing was queued
    sim.run()
    assert sim.now == 0.0


def test_rejected_delay_leaves_event_pending():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.succeed("early", delay=NAN)
    assert not ev.triggered
    ev.succeed("late", delay=2.0)
    sim.run()
    assert (sim.now, ev.value) == (2.0, "late")


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3, "c"))
    sim.process(waiter(1, "a"))
    sim.process(waiter(2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_fifo_tiebreak_at_same_time():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(10):
        sim.process(waiter(tag))
    sim.run()
    assert order == list(range(10))


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    assert sim.run(until=sim.process(parent())) == 43


def test_process_failure_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return str(exc)

    assert sim.run(until=sim.process(parent())) == "boom"


def test_unjoined_process_failure_raises_at_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled model bug")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="unhandled model bug"):
        sim.run()


def test_event_succeed_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 123

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def interrupter(target):
        yield sim.timeout(3.0)
        target.interrupt(cause="preempted")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [("interrupted", 3.0, "preempted")]


def test_interrupted_process_can_continue():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(5.0)
        return sim.now

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt()

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    assert sim.run(until=target) == 7.0


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupt_while_waiting_on_already_triggered_event():
    """Interrupting a process whose target has triggered (but not yet
    processed) must deliver the interrupt, and the stale event firing
    later must not wake the process a second time."""
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter():
        try:
            got = yield ev
            log.append(("value", got))
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))
        yield sim.timeout(5.0)
        log.append("resumed")

    def driver(target):
        yield sim.timeout(1.0)
        ev.succeed("payload")        # ev now TRIGGERED, on the queue
        target.interrupt(cause="cut")  # delivered before ev processes
        yield sim.timeout(0.0)

    target = sim.process(waiter())
    sim.process(driver(target))
    sim.run()
    assert log == [("interrupted", "cut"), "resumed"]
    assert sim.now == 6.0


def test_double_interrupt_in_same_timestep():
    """Two interrupts queued at the same time are both delivered, in
    order, through the `_interrupts` queue in `_resume`."""
    sim = Simulator()
    log = []

    def sleeper():
        for _ in range(2):
            try:
                yield sim.timeout(100.0)
                log.append("timeout")
            except Interrupt as intr:
                log.append((intr.cause, sim.now))
        return "finished"

    def driver(target):
        yield sim.timeout(2.0)
        target.interrupt(cause="first")
        target.interrupt(cause="second")

    target = sim.process(sleeper())
    sim.process(driver(target))
    assert sim.run(until=target) == "finished"
    assert log == [("first", 2.0), ("second", 2.0)]


def test_interrupt_before_first_step_fails_process():
    """Interrupting a process that has not started yet throws into a
    just-created generator, which cannot catch: the process fails."""
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt:  # pragma: no cover - unreachable: gen not started
            pass

    p = sim.process(sleeper())
    p.interrupt(cause="early")
    with pytest.raises(Interrupt):
        sim.run()


def test_stale_target_does_not_resume_after_interrupt():
    """After an interrupt, the original timeout firing must not re-wake."""
    sim = Simulator()
    wakes = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            wakes.append("timeout")
        except Interrupt:
            wakes.append("interrupt")
        yield sim.timeout(50.0)  # still waiting when the stale timeout fires
        wakes.append("second")

    def interrupter(target):
        yield sim.timeout(1.0)
        target.interrupt()

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert wakes == ["interrupt", "second"]
    assert sim.now == 51.0


def test_run_until_time_stops_clock_at_horizon():
    sim = Simulator()

    def proc():
        yield sim.timeout(100.0)

    sim.process(proc())
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_horizon_advances_clock_when_queue_drains():
    """A finite horizon must be reached even if the last event is earlier
    (SimPy semantics): the clock represents elapsed simulated time, not
    the last thing that happened."""
    sim = Simulator()

    def proc():
        yield sim.timeout(3.0)

    sim.process(proc())
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_horizon_on_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_run_until_past_horizon_does_not_rewind_clock():
    sim = Simulator()
    sim.run(until=10.0)
    sim.run(until=4.0)
    assert sim.now == 10.0


def test_run_until_event_on_dry_queue_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_call_at_and_call_in():
    sim = Simulator()
    hits = []
    sim.call_at(4.0, lambda: hits.append(("at", sim.now)))
    sim.call_in(2.0, lambda: hits.append(("in", sim.now)))
    sim.run()
    assert hits == [("in", 2.0), ("at", 4.0)]


def test_call_at_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        sim.call_at(1.0, lambda: None)

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        events = [sim.timeout(1.0, "a"), sim.timeout(3.0, "b")]
        values = yield sim.all_of(events)
        return sim.now, sorted(values)

    assert sim.run(until=sim.process(proc())) == (3.0, ["a", "b"])


def test_any_of_returns_on_first():
    sim = Simulator()

    def proc():
        events = [sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")]
        values = yield sim.any_of(events)
        return sim.now, values

    t, values = sim.run(until=sim.process(proc()))
    assert t == 1.0
    assert values == ["fast"]


def test_any_of_deregisters_from_pending_components():
    """After AnyOf triggers, the losing components must not keep the
    condition's callback alive (they may live for the whole sim)."""
    sim = Simulator()
    slow = sim.timeout(50.0, "slow")
    fast = sim.timeout(1.0, "fast")

    def proc():
        values = yield sim.any_of([slow, fast])
        return values

    p = sim.process(proc())
    sim.run(until=2.0)
    assert p.value == ["fast"]
    assert slow.callbacks == []  # dead lambda would linger here pre-fix


def test_any_of_late_triggering_component_is_harmless():
    sim = Simulator()
    slow = sim.timeout(50.0, "slow")
    fast = sim.timeout(1.0, "fast")

    def proc():
        values = yield sim.any_of([slow, fast])
        return values

    p = sim.process(proc())
    sim.run()  # runs past t=50: `slow` fires after the AnyOf settled
    assert sim.now == 50.0
    assert p.value == ["fast"]


def test_all_of_failure_deregisters_from_pending_components():
    sim = Simulator()
    slow = sim.timeout(50.0)
    failing = sim.event()

    def proc():
        try:
            yield sim.all_of([slow, failing])
        except ValueError as exc:
            return str(exc)

    p = sim.process(proc())
    failing.fail(ValueError("boom"))
    sim.run(until=p)
    assert p.value == "boom"
    assert slow.callbacks == []


def test_all_of_empty_is_immediate():
    sim = Simulator()

    def proc():
        values = yield sim.all_of([])
        return values

    assert sim.run(until=sim.process(proc())) == []


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    assert sim.peek() == 7.0


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf():
        yield sim.timeout(1.0)
        return 1

    def middle():
        v = yield sim.process(leaf())
        yield sim.timeout(1.0)
        return v + 1

    def root():
        v = yield sim.process(middle())
        return v + 1

    assert sim.run(until=sim.process(root())) == 3
    assert sim.now == 2.0


def test_immediately_returning_process():
    sim = Simulator()

    def instant():
        return 99
        yield  # pragma: no cover - makes it a generator

    assert sim.run(until=sim.process(instant())) == 99
    assert sim.now == 0.0


def test_orphaned_fault_failure_counted_not_raised():
    from repro.simcore import FaultError
    sim = Simulator()

    def collateral():
        yield sim.timeout(1.0)
        raise FaultError("in-flight I/O lost to a crash")

    sim.process(collateral())
    sim.run()  # must not raise: fault collateral is expected
    assert sim.orphaned_faults == 1


def test_orphaned_fault_interrupt_counted_not_raised():
    from repro.simcore import FaultError
    sim = Simulator()

    def victim():
        yield sim.timeout(10.0)

    p = sim.process(victim())
    sim.call_at(1.0, lambda: p.interrupt(FaultError("node crashed")))
    sim.run()
    assert sim.orphaned_faults == 1


def test_unjoined_failure_carries_process_name():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("model bug")

    sim.process(bad(), name="culprit")
    with pytest.raises(RuntimeError) as info:
        sim.run()
    assert info.value.sim_process == "culprit"
