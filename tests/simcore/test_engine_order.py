"""Property test: the engine processes every event in ``(when, seq)`` order.

Hypothesis generates small programs: plain events, timeouts and
``call_at`` callbacks due now or later (exact ties and float near-ties
included), sleeping processes, withdrawals of timeouts due now (in the
same-instant FIFO) and later (in the wheel), interrupts, ``run`` to a
time or to an event (which may stop mid-instant and resume later), and
``peek``/``step``.  Processed events spawn further work from a generated
table, so pushes also happen inside callbacks.  Each program runs on the
engine and on :class:`HeapSimulator`, which orders every event in one
``(when, seq)`` heap; the traces of processed events must be identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Interrupt, SimulationError, Simulator
from repro.simcore.engine import _TRIGGERED
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
        self.trace.append(("end", self.sim.now, len(self.sim._queue)))
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
