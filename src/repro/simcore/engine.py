"""Event loop, events, and generator-coroutine processes.

The engine is deliberately minimal but complete enough to host the whole
IBIS cluster simulation:

* :class:`Simulator` owns the clock, a FIFO of events due now and a
  queue of later ones keyed by due time, with deterministic ``(time,
  sequence)`` ordering, so two runs with the same seeds produce
  identical traces.
* :class:`Event` is a one-shot occurrence that callbacks (or processes)
  can wait on; it may succeed with a value or fail with an exception.
* :class:`Process` wraps a generator.  The generator ``yield``s events;
  when the event triggers, its value is sent back into the generator
  (or the stored exception is thrown into it).
* :class:`Timeout` is an event that triggers after a simulated delay.
* Processes can be interrupted (:class:`Interrupt`), which is how task
  preemption is modelled.

Delays and times must be finite and not in the past: anything else
raises :class:`SimulationError` where it is scheduled.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "FaultError",
    "Interrupt",
    "Process",
    "RequestCancelled",
    "SimulationError",
    "Simulator",
    "Timeout",
    "AllOf",
    "AnyOf",
]

_INF = float("inf")

#: Don't sweep a queue holding this few withdrawn entries: the scan
#: costs more than letting them pop as no-ops.
_MIN_SWEEP = 32


class SimulationError(Exception):
    """Raised for misuse of the simulation API (not for model errors)."""


class FaultError(Exception):
    """Base class of injected-fault errors (see :mod:`repro.faults`).

    Defined in the engine so the run loop can recognise *fault
    collateral* — a background process killed by an injected fault after
    its owner already died (e.g. an in-flight chunk of an interrupted
    task) — and count it instead of crashing the simulation, while
    genuine unhandled model errors still surface.
    """


class RequestCancelled(Exception):
    """A queued I/O request was cancelled before it reached the device.

    Raised into waiters when a :class:`~repro.dataplane.CancelScope` is
    cancelled (a task died and its not-yet-dispatched I/O was withdrawn
    from the scheduler queues).  Defined in the engine, like
    :class:`FaultError`, so the run loop can recognise *cancellation
    collateral* — a background process (stream leg, shuffle fetcher)
    whose pending request was cancelled after its owner already died —
    and count it (``Simulator.cancelled_collateral``) instead of
    crashing the simulation.
    """


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    ``cause`` carries an arbitrary payload describing why.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled for processing, value/exception set
_PROCESSED = 2  # callbacks have run
#: queued but dead: skipped when popped, so it never fires.  Greater
#: than _PROCESSED on purpose: a withdrawn event cannot fire again.
WITHDRAWN = 3


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* the event: it is put on the simulator's queue (at the
    current time unless it was created by :class:`Timeout`) and its
    callbacks run when it is popped.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_state", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._state = _PENDING
        self.name = name

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state >= _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"value of untriggered event {self!r}")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        # Queue first: a rejected delay leaves the event pending.
        sim = self.sim
        if delay:
            sim._push(delay, self)
        else:
            sim._queue._seq += 1
            sim._now_q.append(self)
        self._value = value
        self._state = _TRIGGERED
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.sim._push(delay, self)
        self._exc = exc
        self._state = _TRIGGERED
        return self

    # -- internal -----------------------------------------------------------
    def _process(self) -> None:
        self._state = _PROCESSED
        # A processed event can never fire again: drop the callback list
        # outright (appending to a processed event is a bug and now fails
        # loudly) instead of allocating a fresh empty list per event.
        callbacks = self.callbacks
        self.callbacks = None
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<Event {self.name or hex(id(self))} {state[self._state]}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation.

    It keeps its due time ``when``, so :meth:`Simulator._withdraw` knows
    whether it waits in the same-instant FIFO or in the later queue.
    """

    __slots__ = ("when",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not 0.0 <= delay < _INF:  # also rejects NaN
            raise SimulationError(f"timeout delay must be finite and >= 0, got {delay}")
        # Hot path: inline Event.__init__ and the push, and skip the
        # per-instance formatted name — one Timeout per simulated wait.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._state = _TRIGGERED
        self.name = "timeout"
        now = sim.now
        self.when = when = now + delay
        if when > now:
            sim._queue.push(when, self)
        else:
            sim._queue._seq += 1
            sim._now_q.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout @{self.when:g} {'processed' if self._state >= _PROCESSED else 'triggered'}>"


class _StartSignal:
    """Sentinel 'trigger' for a process's very first resume.

    Looks enough like a triggered event (``_value``/``_exc``/``callbacks``)
    for :meth:`Process._resume` and :meth:`Process.interrupt` to treat it
    uniformly, without allocating a real init :class:`Event` per process.
    """

    __slots__ = ()
    _value: Any = None
    _exc: Optional[BaseException] = None
    callbacks: list = []


_START = _StartSignal()


class Process(Event):
    """A running generator-coroutine.

    The process itself is an event that triggers when the generator
    returns (success, value = return value) or raises (failure).  Other
    processes can therefore ``yield proc`` to join it.
    """

    __slots__ = ("_gen", "_target", "_interrupts", "_started")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise SimulationError(f"Process requires a generator, got {gen!r}")
        self._gen = gen
        self._interrupts: list[Interrupt] = []
        # Kick off at the current simulation time: the process schedules
        # *itself* as its start record (see _process), so no init Event
        # is allocated.
        self._started = False
        self._target: Optional[Event] = _START
        sim._queue._seq += 1
        sim._now_q.append(self)

    def _process(self) -> None:
        if not self._started:
            # First pop: start the generator directly.
            self._started = True
            self._resume(_START)
            return
        Event._process(self)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        self._interrupts.append(Interrupt(cause))
        target = self._target
        if target is not None:
            # Stop waiting on the target: de-register our resume callback.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
            # An abandoned Timeout with no other waiters is a tombstone:
            # withdraw it so it never pops (and can be swept) instead of
            # sitting in the queue until its — possibly far-future — time.
            if (
                type(target) is Timeout
                and target._state == _TRIGGERED
                and not target.callbacks
            ):
                self.sim._withdraw(target)
        wake = Event(self.sim, name=f"interrupt:{self.name}")
        wake.callbacks.append(self._resume)
        wake.succeed()

    # -- stepping ------------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        if self._state != _PENDING:  # already finished (e.g. raced interrupt)
            return
        interrupts = self._interrupts
        if trigger is not self._target and not interrupts:
            return  # stale wake-up (e.g. interrupt already delivered)
        self._target = None
        sim = self.sim
        sim._active = self
        gen = self._gen
        try:
            while True:
                if not interrupts and trigger._exc is None:
                    # Common case: deliver the trigger's value.
                    try:
                        nxt = gen.send(trigger._value)
                    except StopIteration as stop:
                        self._finish_ok(stop.value)
                        return
                elif interrupts:
                    exc: BaseException = interrupts.pop(0)
                    try:
                        nxt = gen.throw(exc)
                    except StopIteration as stop:
                        self._finish_ok(stop.value)
                        return
                else:
                    try:
                        nxt = gen.throw(trigger._exc)
                    except StopIteration as stop:
                        self._finish_ok(stop.value)
                        return
                # Fast path: the dominant yield is a freshly created
                # Timeout, which is always in the TRIGGERED state.
                if nxt.__class__ is Timeout and nxt._state == _TRIGGERED:
                    self._target = nxt
                    nxt.callbacks.append(self._resume)
                    return
                if not isinstance(nxt, Event):
                    raise SimulationError(
                        f"process {self.name} yielded non-event {nxt!r}"
                    )
                if nxt._state == _PROCESSED:
                    # Already done: loop synchronously with its outcome.
                    trigger = nxt
                    continue
                if nxt._state == WITHDRAWN:
                    # A withdrawn event can never fire; waiting on it
                    # would hang the process forever.
                    raise SimulationError(
                        f"process {self.name} yielded withdrawn event {nxt!r}"
                    )
                self._target = nxt
                nxt.callbacks.append(self._resume)
                return
        except BaseException as exc:  # generator raised: fail the process event
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._finish_fail(exc)
        finally:
            sim._active = None

    def _finish_ok(self, value: Any) -> None:
        self._value = value
        self._state = _TRIGGERED
        sim = self.sim
        sim._queue._seq += 1
        sim._now_q.append(self)

    def _finish_fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._state = _TRIGGERED
        self.sim._push(0.0, self)
        # If nobody is joining this process, surface the error at run() time.
        self.sim._defunct.append(self)


class Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("_events", "_remaining", "_mode")

    def __init__(self, sim: "Simulator", events: Iterable[Event], mode: str):
        super().__init__(sim, name=mode)
        self._events = list(events)
        self._remaining = len(self._events)
        self._mode = mode
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._events:
            if self._state != _PENDING:
                break  # settled already (e.g. AnyOf with a processed component)
            if ev._state == _PROCESSED:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if ev._exc is not None:
            self._detach()
            self.fail(ev._exc)
            return
        self._remaining -= 1
        if self._mode == "any" or self._remaining == 0:
            # _process() flips state to PROCESSED before callbacks run, so
            # the event that fired this check is included.
            self._detach()
            self.succeed([e._value for e in self._events if e.processed])

    def _detach(self) -> None:
        """De-register our callback from components that have not fired.

        Without this, an AnyOf over long-lived events would leave one
        dead callback per component alive on every still-pending event
        for the rest of the simulation.
        """
        cb = self._check
        for ev in self._events:
            if ev._state != _PROCESSED:
                try:
                    ev.callbacks.remove(cb)
                except ValueError:
                    pass


class AllOf(Condition):
    """Triggers when all component events have triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, "all")


class AnyOf(Condition):
    """Triggers when any component event triggers."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, "any")


class _LaterQueue:
    """Events due after ``now``: a heap of their distinct due times, and
    a dict from each time to its entries in push order.

    Pushes arrive in ``seq`` order, so each time's list is already in
    ``(when, seq)`` order and the heap never compares entries.
    :meth:`pop_batch` hands the simulator every entry of the next time
    at once.  ``_seq`` counts every push, including those that go
    straight to the simulator's same-instant FIFO.
    """

    __slots__ = ("_times", "_at", "_seq", "_size", "_dead")

    def __init__(self):
        self._times: list[float] = []  # heap of the keys of _at
        self._at: dict[float, list] = {}
        self._seq = 0
        self._size = 0  # entries in _at, withdrawn ones included
        self._dead = 0  # >= the withdrawn entries in _at; the sweep resets it

    def push(self, when: float, ev: Any) -> None:
        self._seq += 1
        self._size += 1
        entries = self._at.get(when)
        if entries is None:
            self._at[when] = [ev]
            heappush(self._times, when)
        else:
            entries.append(ev)

    def pop_batch(self, out: deque, limit: float = _INF) -> Optional[float]:
        """Move the entries of the next due time into ``out`` in push
        order and return that time, or return None when no live entry
        is due by ``limit``.  Withdrawn entries behind a live head move
        too; whoever pops ``out`` skips them.  A time whose entries are
        all withdrawn is dropped, without moving the clock to it."""
        times = self._times
        while times and times[0] <= limit:
            when = heappop(times)
            entries = self._at.pop(when)
            self._size -= len(entries)
            if entries[0]._state != WITHDRAWN:  # most batches: one live entry
                out.extend(entries)
                return when
            live = [ev for ev in entries if ev._state != WITHDRAWN]
            self._dead -= len(entries) - len(live)
            if live:
                out.extend(live)
                return when
        return None

    def peek(self) -> float:
        """The next due time with a live entry, or ``inf``; drops the
        times before it whose entries are all withdrawn."""
        times, at = self._times, self._at
        while times:
            entries = at[times[0]]
            for ev in entries:
                if ev._state != WITHDRAWN:
                    return times[0]
            del at[heappop(times)]
            self._size -= len(entries)
            self._dead -= len(entries)
        return _INF

    def count_withdrawn(self) -> None:
        """Count one queued entry as withdrawn; once withdrawals exceed
        half the queue, sweep every withdrawn entry out in one pass, so
        abandoned far-future timeouts cannot pile up."""
        self._dead += 1
        if self._dead > _MIN_SWEEP and 2 * self._dead > self._size:
            at = self._at
            for when, entries in list(at.items()):
                live = [ev for ev in entries if ev._state != WITHDRAWN]
                if live:
                    at[when] = live
                else:
                    del at[when]
            self._times = list(at)
            heapify(self._times)
            self._size = sum(map(len, at.values()))
            self._dead = 0


class Simulator:
    """The event loop: clock, same-instant FIFO and queue of later events.

    Ordering is by ``(time, sequence)`` where ``sequence`` is a global
    monotonically increasing counter, making runs fully deterministic.
    Events due at ``now`` wait in a FIFO (``_now_q``); later ones wait
    in ``_queue`` (a :class:`_LaterQueue`).  When the FIFO drains, every
    entry of the next due time moves into it in sequence order and the
    clock advances.  Those entries were all pushed before the clock
    reached their time, so they precede anything pushed at that time:
    FIFO order is exactly ``(time, sequence)`` order.  The queue's
    ``_seq`` counts every scheduled event, FIFO ones included.
    """

    def __init__(self):
        self.now: float = 0.0
        self._queue = _LaterQueue()
        self._now_q: deque = deque()  # events due at `now`, in seq order
        self._active: Optional[Process] = None
        self._defunct: list[Process] = []  # failed processes, checked in run()
        #: orphaned processes killed by an injected fault (no joiner);
        #: counted rather than raised — see :class:`FaultError`.
        self.orphaned_faults = 0
        #: orphaned processes killed by request cancellation (no joiner);
        #: counted rather than raised — see :class:`RequestCancelled`.
        self.cancelled_collateral = 0

    # -- event construction helpers ------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute simulated time ``when``."""
        if not self.now <= when < _INF:
            raise SimulationError(
                f"call_at({when}) is in the past or not finite (now={self.now})"
            )
        ev = Event(self, name="call_at")
        ev.callbacks.append(lambda _ev: fn())
        ev._state = _TRIGGERED
        self._push(when - self.now, ev)
        return ev

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` simulated seconds."""
        return self.call_at(self.now + delay, fn)

    # -- queue internals --------------------------------------------------
    def _push(self, delay: float, ev: Any) -> None:
        """Queue a triggered entry ``delay`` seconds from now."""
        if not 0.0 <= delay < _INF:  # also rejects NaN
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        now = self.now
        when = now + delay
        if when > now:
            self._queue.push(when, ev)
        else:
            self._queue._seq += 1
            self._now_q.append(ev)

    def _withdraw(self, ev: Any) -> None:
        """Withdraw a queued entry the caller owns: mark it dead, so it
        is skipped when popped and never fires.

        The caller guarantees the entry is queued (``TRIGGERED``) with
        no observers left.  ``ev.when`` says where it waits: an entry
        due now is in the FIFO, and marking it is all; the later queue
        also counts it, for its sweep.
        """
        ev._state = WITHDRAWN
        ev.callbacks = None
        if ev.when > self.now:
            self._queue.count_withdrawn()

    # -- running -------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        now_q = self._now_q
        while True:
            if now_q:
                ev = now_q.popleft()
                if ev._state != WITHDRAWN:
                    ev._process()
                    return
                continue
            when = self._queue.pop_batch(now_q)
            if when is None:
                raise IndexError("step() on an empty event queue")
            self.now = when

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        now_q = self._now_q
        while now_q and now_q[0]._state == WITHDRAWN:
            now_q.popleft()
        if now_q:
            return self.now
        return self._queue.peek()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the given time, the given event triggers, or the queue
        drains.  Returns the event's value when ``until`` is an event.

        With a finite time horizon the clock always advances to the
        horizon, even when the queue drains early (SimPy semantics).

        Failed processes that nobody joined re-raise here so model bugs
        cannot pass silently.
        """
        # The loops below are the simulation's hottest code: locals are
        # bound once, and each event costs one FIFO pop.  The later
        # queue is consulted once per distinct timestamp, to move that
        # timestamp's entries into the drained FIFO.
        now_q = self._now_q
        popleft = now_q.popleft
        pop_batch = self._queue.pop_batch
        defunct = self._defunct
        if isinstance(until, Event):
            stop_ev = until
            while stop_ev._state != _PROCESSED:
                if now_q:
                    ev = popleft()
                    if ev._state == WITHDRAWN:
                        continue
                    ev._process()
                    if defunct:
                        self._raise_defunct(stop_ev)
                    continue
                when = pop_batch(now_q)
                if when is None:
                    raise SimulationError(
                        f"simulation ran dry before event {stop_ev!r} triggered"
                    )
                self.now = when
            return stop_ev.value
        horizon = float("inf") if until is None else float(until)
        # Only the batch move advances the clock, and never past the
        # horizon; entries due now wait if the clock already passed it.
        if self.now <= horizon:
            while True:
                if now_q:
                    ev = popleft()
                    if ev._state == WITHDRAWN:
                        continue
                    ev._process()
                    if defunct:
                        self._raise_defunct(None)
                    continue
                when = pop_batch(now_q, horizon)
                if when is None:
                    break
                self.now = when
        if horizon != float("inf") and horizon > self.now:
            self.now = horizon
        return None

    def _raise_defunct(self, joined: Optional[Event]) -> None:
        while self._defunct:
            proc = self._defunct.pop()
            if proc is joined:
                continue
            # A process failure with a registered waiter is someone else's
            # problem; without one it is an unhandled model error —
            # except fault collateral, which is expected during fault
            # injection and only counted.
            if not proc.callbacks and proc._exc is not None:
                exc = proc._exc
                if isinstance(exc, FaultError) or (
                    isinstance(exc, Interrupt) and isinstance(exc.cause, FaultError)
                ):
                    self.orphaned_faults += 1
                    continue
                if isinstance(exc, RequestCancelled) or (
                    isinstance(exc, Interrupt)
                    and isinstance(exc.cause, RequestCancelled)
                ):
                    self.cancelled_collateral += 1
                    continue
                if getattr(exc, "sim_process", None) is None:
                    try:
                        exc.sim_process = proc.name
                    except (AttributeError, TypeError):
                        pass
                raise exc
