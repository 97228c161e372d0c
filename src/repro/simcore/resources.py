"""Shared-resource primitives built on the event engine.

* :class:`Resource` — a counting semaphore with a FIFO wait queue.  Used
  for a reduce task's parallel shuffle-fetch slots.
* :class:`Gate` — a broadcast condition: many waiters, one ``open()``.
  Used for a job's map-output availability.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.simcore.engine import Event, SimulationError, Simulator

__all__ = ["Gate", "Resource"]


class Resource:
    """Counting resource with FIFO granting.

    ``acquire(n)`` returns an event that succeeds once ``n`` units are
    granted; ``release(n)`` returns units.  Waiters are served strictly
    in FIFO order (a large request at the head blocks later small ones —
    matching how YARN hands out containers per app request order).
    """

    __slots__ = ("sim", "capacity", "in_use", "name", "_event_name", "_waiters")

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive: {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self.in_use = 0
        self.name = name
        self._event_name = f"acquire:{name}"  # shared by every acquire event
        self._waiters: deque[tuple[Event, int]] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self, amount: int = 1) -> Event:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot acquire {amount} of {self.capacity} from {self.name!r}"
            )
        ev = Event(self.sim, name=self._event_name)
        self._waiters.append((ev, amount))
        self._grant()
        return ev

    def release(self, amount: int = 1) -> None:
        if amount <= 0:
            raise SimulationError(f"release amount must be positive: {amount}")
        if self.in_use - amount < 0:
            raise SimulationError(
                f"over-release on {self.name!r}: in_use={self.in_use}, amount={amount}"
            )
        self.in_use -= amount
        self._grant()

    def _grant(self) -> None:
        while self._waiters:
            ev, amount = self._waiters[0]
            if ev.triggered:  # externally failed / abandoned
                self._waiters.popleft()
                continue
            if amount > self.available:
                return
            self._waiters.popleft()
            self.in_use += amount
            ev.succeed(amount)


class Gate:
    """A broadcast condition.

    ``wait()`` returns an event; ``open(value)`` triggers every waiter.
    The gate can be reused: after ``open`` it resets to closed.
    """

    __slots__ = ("sim", "name", "_waiters")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        ev = Event(self.sim, name=f"gate:{self.name}")
        self._waiters.append(ev)
        return ev

    def open(self, value: Any = None) -> int:
        """Release all current waiters; returns how many were released."""
        waiters, self._waiters = self._waiters, []
        n = 0
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(value)
                n += 1
        return n
