"""Shared-resource primitives built on the event engine.

* :class:`Gate` — a broadcast condition: many waiters, one ``open()``.
  Used for a job's map-output availability.
"""

from __future__ import annotations

from typing import Any

from repro.simcore.engine import Event, Simulator

__all__ = ["Gate"]


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
