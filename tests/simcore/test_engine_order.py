"""Property test: the engine processes every event in ``(when, seq)`` order.

Hypothesis generates small programs: plain events, timeouts and
``call_at`` callbacks due now or later (exact ties and float near-ties
included), sleeping processes, withdrawals of timeouts due now (in the
same-instant FIFO) and later (in the later queue), interrupts, ``run`` to a
time or to an event (which may stop mid-instant and resume later), and
``peek``/``step``.  Processed events spawn further work from a generated
table, so pushes also happen inside callbacks.  Each program runs on the
engine and on :class:`HeapSimulator`, which orders every event in one
``(when, seq)`` heap; the traces of processed events must be identical.
Hand-written models check the same against device I/O and mass
withdrawals, and that a withdrawn timeout never fires.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HDD_PROFILE, MB
from repro.simcore import Interrupt, SimulationError, Simulator
from repro.simcore.engine import _TRIGGERED, WITHDRAWN
from repro.storage.device import StorageDevice
from tests.simcore.oracle import HeapSimulator

#: 0.25-multiples tie exactly; 0.1 and 0.3 produce float near-ties; 1e-18
#: is a positive delay that vanishes once the clock is past 0.
DELAYS = (0.0, 0.0, 0.0, 1e-18, 0.1, 0.25, 0.3, 0.5, 1.0)
#: only events with a smaller id spawn work, so every program ends
SPAWN_LIMIT = 80

_action = st.one_of(
    st.tuples(st.sampled_from(("event", "timeout", "call_at", "sleeper")),
              st.sampled_from(DELAYS)),
    st.tuples(st.sampled_from(("withdraw", "interrupt")),
              st.integers(0, 40)),
)
_driver = st.one_of(
    _action,
    st.tuples(st.just("run_time"), st.sampled_from(DELAYS)),
    st.tuples(st.just("run_event"), st.integers(0, 40)),
    st.tuples(st.sampled_from(("peek", "step")), st.just(0)),
)


class Program:
    """One generated program, bound to one engine."""

    def __init__(self, sim, children):
        self.sim = sim
        self.children = children
        self.trace = []
        self.ids = 0
        self.events = []      # every event the program created
        self.timeouts = []    # plain timeouts the program may withdraw
        self.sleepers = []

    def _new_id(self):
        self.ids += 1
        return self.ids

    def fire(self, ident):
        self.trace.append((self.sim.now, ident))
        if ident < SPAWN_LIMIT and self.children:
            for action in self.children[ident % len(self.children)]:
                self.act(action)

    def sleep(self, ident, delay):
        try:
            yield self.sim.timeout(delay)
        except Interrupt:
            self.trace.append((self.sim.now, ident, "interrupted"))
            return
        self.fire(ident)

    def act(self, action):
        sim = self.sim
        kind, arg = action
        if kind == "event":
            ident = self._new_id()
            ev = sim.event()
            ev.callbacks.append(lambda _ev, i=ident: self.fire(i))
            ev.succeed(delay=arg)
            self.events.append(ev)
        elif kind == "timeout":
            ident = self._new_id()
            ev = sim.timeout(arg)
            ev.callbacks.append(lambda _ev, i=ident: self.fire(i))
            self.events.append(ev)
            self.timeouts.append(ev)
        elif kind == "call_at":
            ident = self._new_id()
            self.events.append(
                sim.call_at(sim.now + arg, lambda i=ident: self.fire(i)))
        elif kind == "sleeper":
            proc = sim.process(self.sleep(self._new_id(), arg))
            self.events.append(proc)
            self.sleepers.append(proc)
        elif kind == "withdraw":
            queued = [t for t in self.timeouts if t._state == _TRIGGERED]
            if queued:
                victim = queued[arg % len(queued)]
                sim._withdraw(victim)
                self.trace.append((sim.now, "withdraw", victim.when))
        elif kind == "interrupt":
            # Started and waiting on their timeout, due now or later.
            asleep = [p for p in self.sleepers
                      if p.is_alive and p._started and p._target is not None]
            if asleep:
                asleep[arg % len(asleep)].interrupt("x")
        elif kind == "run_time":
            sim.run(until=sim.now + arg)
            self.trace.append(("ran to", sim.now))
        elif kind == "run_event":
            if self.events:
                target = self.events[arg % len(self.events)]
                try:
                    sim.run(until=target)
                    self.trace.append(("stopped at", sim.now))
                except SimulationError:
                    self.trace.append(("dry", sim.now))
        elif kind == "peek":
            self.trace.append(("peek", sim.peek()))
        elif kind == "step":
            if sim.peek() != float("inf"):
                sim.step()
                self.trace.append(("step", sim.now))

    def play(self, script):
        for action in script:
            self.act(action)
        self.sim.run()
        self.trace.append(("end", self.sim.now, self.sim.peek()))
        return self.trace


@settings(max_examples=150, deadline=None)
@given(script=st.lists(_driver, min_size=1, max_size=40),
       children=st.lists(st.lists(_action, max_size=3), max_size=12))
def test_engine_matches_heap_oracle(script, children):
    oracle = Program(HeapSimulator(), children).play(script)
    assert Program(Simulator(), children).play(script) == oracle


def test_run_until_event_stops_mid_instant_and_resumes():
    """Stopping on the first of three same-instant events leaves the
    other two queued; events pushed before resuming follow them."""
    for make in (Simulator, HeapSimulator):
        sim = make()
        log = []
        first, second, third = sim.event(), sim.event(), sim.event()
        for name, ev in (("first", first), ("second", second),
                         ("third", third)):
            ev.callbacks.append(lambda _ev, n=name: log.append((sim.now, n)))
        sim.call_at(2.0, lambda: (first.succeed(), second.succeed(),
                                  third.succeed()))
        sim.run(until=first)
        assert log == [(2.0, "first")]
        assert sim.peek() == 2.0
        late = sim.timeout(0.0)
        late.callbacks.append(lambda _ev: log.append((sim.now, "late")))
        sim.run()
        assert log == [(2.0, "first"), (2.0, "second"), (2.0, "third"),
                       (2.0, "late")]


def _scripted_simulation(sim, use_run):
    """A deliberately messy model: sleeps, interrupts, device I/O, and
    abandoned timeouts, all racing on shared timestamps.

    With ``use_run`` the model runs through :meth:`Simulator.run`;
    otherwise a plain ``peek``/``step`` loop drives it to the same
    horizon, which works on any engine.  Whatever is still queued at
    the horizon is then stepped through, and counted."""
    dev = StorageDevice(sim, HDD_PROFILE, name="d0")
    trace = []

    def sleeper(name, delay):
        try:
            yield sim.timeout(delay)
            trace.append((sim.now, name, "woke"))
        except Interrupt as itr:
            trace.append((sim.now, name, f"interrupted:{itr.cause}"))

    def io_worker(name, n):
        for i in range(n):
            done = yield dev.submit("write" if i % 3 == 0 else "read", 2 * MB)
            trace.append((sim.now, name, round(done.latency, 9)))
            # Same-instant hops between the device's completion events.
            yield sim.timeout(0.0)
            trace.append((sim.now, name, "hop"))

    def meddler(targets):
        yield sim.timeout(1.0)
        for i, t in enumerate(targets):
            if t.is_alive and i % 2 == 0:
                t.interrupt(cause=f"m{i}")
                yield sim.timeout(0.25)

    sleepers = [sim.process(sleeper(f"s{i}", 0.5 + 0.75 * i), name=f"s{i}")
                for i in range(8)]
    workers = [sim.process(io_worker(f"w{i}", 6), name=f"w{i}")
               for i in range(4)]
    sim.process(meddler(sleepers), name="meddler")
    sim.call_at(1.0, lambda: trace.append((sim.now, "call_at", len(workers))))
    if use_run:
        sim.run(until=30.0)
    else:
        while sim.peek() <= 30.0:
            sim.step()
        sim.now = 30.0
    pending = 0
    while sim.peek() != float("inf"):
        sim.step()
        pending += 1
    trace.append((sim.now, "pending", pending))
    return trace


def test_full_simulation_identical_on_both_queues():
    oracle = _scripted_simulation(HeapSimulator(), use_run=False)
    assert _scripted_simulation(HeapSimulator(), use_run=True) == oracle
    assert _scripted_simulation(Simulator(), use_run=False) == oracle
    assert _scripted_simulation(Simulator(), use_run=True) == oracle


def _mass_interrupt(sim):
    """600 processes sleep on far-future timeouts (50 of them per due
    time); at t=1 two of every three are interrupted, which withdraws
    their timeouts.  Returns the survivors' wake-ups."""
    woke = []

    def sleeper(k):
        try:
            yield sim.timeout(1000.0 + k % 12)
            woke.append((sim.now, k))
        except Interrupt:
            pass

    procs = [sim.process(sleeper(k)) for k in range(600)]

    def killer():
        yield sim.timeout(1.0)
        for k, proc in enumerate(procs):
            if k % 3:
                proc.interrupt()

    sim.process(killer())
    sim.run(until=2.0)
    return woke


def test_withdrawals_are_swept_and_survivors_keep_their_order():
    sim = Simulator()
    woke = _mass_interrupt(sim)
    held = [ev for entries in sim._queue._at.values() for ev in entries]
    live = sum(ev._state != WITHDRAWN for ev in held)
    assert live == 200
    assert len(held) <= 2 * live + 32
    sim.run()
    oracle = HeapSimulator()
    oracle_woke = _mass_interrupt(oracle)
    oracle.run()
    assert len(woke) == 200
    assert woke == oracle_woke


def test_withdrawn_timeout_is_terminal():
    """A withdrawn timeout, due now or later, loses its callbacks and
    never fires; a time left with only withdrawn entries does not move
    the clock, and a process cannot wait on a withdrawn event."""
    for make in (Simulator, HeapSimulator):
        sim = make()
        fired = []
        soon, later = sim.timeout(0.0), sim.timeout(3.0)
        for ev in (soon, later):
            ev.callbacks.append(fired.append)
            sim._withdraw(ev)
            assert ev._state == WITHDRAWN and ev.callbacks is None
        sim.run()
        assert fired == [] and sim.now == 0.0 and sim.peek() == float("inf")

        def waiter():
            yield later

        proc = sim.process(waiter())
        with pytest.raises(SimulationError, match="withdrawn"):
            sim.run(until=proc)


def test_withdrawn_head_leaves_its_time_to_the_live_entries():
    """Withdrawing the first of three timeouts due at one time leaves
    that time to the other two, for ``peek`` and for ``run``."""
    for make in (Simulator, HeapSimulator):
        sim = make()
        fired = []
        first, second, third = (sim.timeout(3.0) for _ in range(3))
        for name, ev in (("second", second), ("third", third)):
            ev.callbacks.append(lambda _ev, n=name: fired.append((sim.now, n)))
        sim._withdraw(first)
        assert sim.peek() == 3.0
        sim.run()
        assert fired == [(3.0, "second"), (3.0, "third")]
