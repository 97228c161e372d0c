"""Property test: the event wheel is observationally a binary heap.

Random schedule/pop/withdraw sequences are applied to an
:class:`EventWheel` and the reference :class:`HeapEventQueue` in
lockstep; every pop must return the identical ``(when, seq, event)``
entry — including same-timestamp tie-breaks, which is the determinism
invariant the figure goldens rest on.  A second layer runs a real
simulation (processes, interrupts, device I/O) on the engine and on
:class:`HeapSimulator`, which orders every event in one heap, and
compares the observable trace.
"""

import random

import pytest

from repro.config import HDD_PROFILE, MB
from repro.simcore import EventWheel, Interrupt, Simulator
from repro.simcore.wheel import WITHDRAWN
from repro.storage.device import StorageDevice
from tests.simcore.oracle import HeapEventQueue, HeapSimulator


class _Ev:
    """Minimal stand-in for an engine Event: state + callbacks slots."""

    __slots__ = ("_state", "callbacks", "ident")

    def __init__(self, ident):
        self._state = 1  # triggered
        self.callbacks = []
        self.ident = ident

    def __repr__(self):
        return f"_Ev({self.ident})"


def _random_drive(queue_factory, seed, n_ops):
    """Apply one seeded op sequence; return the observable pop trace."""
    rng = random.Random(seed)
    q = queue_factory()
    trace = []
    now = 0.0
    live = []  # (ev, when) still expected in the queue
    ident = 0
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.55:
            # Schedule: never in the past; coarse quantization forces
            # plenty of exact timestamp collisions (tie-break coverage).
            when = now + rng.choice((0.0, 0.0625, 0.25, 1.0, 7.75)) * rng.randint(0, 8)
            ev = _Ev(ident)
            ident += 1
            q.push(when, ev)
            live.append(ev)
        elif r < 0.8:
            limited = rng.random() < 0.3
            entry = q.pop(now + 2.0) if limited else q.pop()
            if entry is not None:
                when, seq, ev = entry
                assert when >= now
                now = when
                ev._state = 2  # processed
                live.remove(ev)
                trace.append((when, seq, ev.ident))
            else:
                trace.append(("empty-pop", limited))
        elif r < 0.9 and live:
            victim = live.pop(rng.randrange(len(live)))
            q.withdraw(victim)
            trace.append(("withdraw", victim.ident))
        else:
            trace.append(("peek", q.peek(), len(q)))
    # Drain completely: residual order must match too.
    while True:
        entry = q.pop()
        if entry is None:
            break
        when, seq, ev = entry
        ev._state = 2
        trace.append((when, seq, ev.ident))
    trace.append(("end", len(q), q.tombstones))
    return trace


@pytest.mark.parametrize("seed", range(12))
def test_wheel_matches_heap_pop_for_pop(seed):
    n_ops = 400 if seed % 3 else 1500
    heap_trace = _random_drive(HeapEventQueue, seed, n_ops)
    wheel_trace = _random_drive(EventWheel, seed, n_ops)
    assert wheel_trace == heap_trace


@pytest.mark.parametrize("width", [0.03125, 0.25, 16.0])
def test_wheel_matches_heap_across_widths(width):
    heap_trace = _random_drive(HeapEventQueue, 99, 1200)
    wheel_trace = _random_drive(lambda: EventWheel(width=width), 99, 1200)
    assert wheel_trace == heap_trace


def test_compaction_triggers_and_preserves_order():
    q = EventWheel()
    ref = HeapEventQueue()
    evs, refs = [], []
    for k in range(600):
        when = float(k % 7)
        e1, e2 = _Ev(k), _Ev(k)
        q.push(when, e1)
        ref.push(when, e2)
        evs.append(e1)
        refs.append(e2)
    for k in range(400):  # withdraw 2/3 -> tombstones outnumber live
        q.withdraw(evs[k])
        ref.withdraw(refs[k])
    assert q.tombstones_compacted > 0
    out_q, out_ref = [], []
    while True:
        a, b = q.pop(), ref.pop()
        assert (a is None) == (b is None)
        if a is None:
            break
        out_q.append((a[0], a[1], a[2].ident))
        out_ref.append((b[0], b[1], b[2].ident))
        a[2]._state = b[2]._state = 2
    assert out_q == out_ref
    assert len(out_q) == 200


def _scripted_simulation(sim, use_run):
    """A deliberately messy model: sleeps, interrupts, device I/O, and
    abandoned timeouts, all racing on shared timestamps.

    With ``use_run`` the model runs through :meth:`Simulator.run`;
    otherwise a plain ``peek``/``step`` loop drives it to the same
    horizon, which works on any engine."""
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
    trace.append((sim.now, "queue", len(sim._queue)))
    return trace


def test_full_simulation_identical_on_both_queues():
    oracle = _scripted_simulation(HeapSimulator(), use_run=False)
    assert _scripted_simulation(HeapSimulator(), use_run=True) == oracle
    assert _scripted_simulation(Simulator(), use_run=False) == oracle
    assert _scripted_simulation(Simulator(), use_run=True) == oracle


def test_withdrawn_state_is_terminal():
    q = EventWheel()
    ev = _Ev(0)
    q.push(3.0, ev)
    q.withdraw(ev)
    assert ev._state == WITHDRAWN
    assert ev.callbacks is None
    assert q.pop() is None
    assert len(q) == 0
