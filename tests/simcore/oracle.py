"""Reference engines the simulator is checked against.

:class:`HeapEventQueue` is the engine's original binary-heap queue and
:class:`HeapSimulator` runs the real events, processes and devices on
it: every push, whether due now or later, goes into one ``(when, seq)``
heap, and every pop takes its minimum.  That total order is the one the
figure goldens rest on; the engine's queue of later events, its
same-instant FIFO and the batch move between them must reproduce it
exactly.
"""

from heapq import heapify, heappop, heappush

from repro.simcore import Event, SimulationError, Simulator
from repro.simcore.engine import _MIN_SWEEP, _PROCESSED, WITHDRAWN


class HeapEventQueue:
    """The engine's original binary-heap queue: pop order is
    ``(when, seq)``, and withdrawn entries are swept once they
    outnumber the live ones."""

    __slots__ = ("_heap", "_seq", "_live", "_tombstones")

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._live = 0
        self._tombstones = 0

    def push(self, when, ev):
        self._seq = seq = self._seq + 1
        self._live += 1
        heappush(self._heap, (when, seq, ev))

    def _settle(self):
        heap = self._heap
        while heap and heap[0][2]._state == WITHDRAWN:
            heappop(heap)
            self._tombstones -= 1
        return bool(heap)

    def pop(self, limit=float("inf")):
        if not self._settle() or self._heap[0][0] > limit:
            return None
        self._live -= 1
        return heappop(self._heap)

    def peek(self):
        return self._heap[0][0] if self._settle() else float("inf")

    def withdraw(self, ev):
        ev._state = WITHDRAWN
        ev.callbacks = None
        self._live -= 1
        self._tombstones += 1
        if self._tombstones > _MIN_SWEEP and self._tombstones > self._live:
            keep = [e for e in self._heap if e[2]._state != WITHDRAWN]
            heapify(keep)
            self._heap = keep
            self._tombstones = 0


class _PushNow:
    """Stands in for the simulator's same-instant FIFO: an appended
    event goes into the oracle heap at the current time instead."""

    __slots__ = ("sim",)

    def __init__(self, sim):
        self.sim = sim

    def append(self, ev):
        self.sim._queue.push(self.sim.now, ev)

    def __len__(self):
        return 0


class HeapSimulator(Simulator):
    """The simulator on one ``(when, seq)`` heap: the engine's oracle.

    Events, processes and devices push exactly as they do on the real
    engine; this class only changes where the pushes land and how the
    next event is found, so any difference in event order is the
    engine's.
    """

    def __init__(self):
        super().__init__()
        self._queue = HeapEventQueue()
        self._now_q = _PushNow(self)

    def _withdraw(self, ev):
        self._queue.withdraw(ev)

    def step(self):
        entry = self._queue.pop()
        if entry is None:
            raise IndexError("step() on an empty event queue")
        self.now = entry[0]
        entry[2]._process()

    def peek(self):
        return self._queue.peek()

    def run(self, until=None):
        if isinstance(until, Event):
            while until._state != _PROCESSED:
                if self.peek() == float("inf"):
                    raise SimulationError(
                        f"simulation ran dry before event {until!r} triggered")
                self.step()
                if self._defunct:
                    self._raise_defunct(until)
            return until.value
        horizon = float("inf") if until is None else float(until)
        while True:
            when = self.peek()
            if when == float("inf") or when > horizon:
                break
            self.step()
            if self._defunct:
                self._raise_defunct(None)
        if horizon != float("inf") and horizon > self.now:
            self.now = horizon
        return None
