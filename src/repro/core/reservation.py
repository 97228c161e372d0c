"""Non-work-conserving reservation scheduler (§9's extreme point).

The discussion section observes that IBIS can trade resource
utilization for isolation by choice of scheduler, and that "in the
extreme case, a non-work-conserving scheduler can provide strict
performance isolation but may severely underutilize the storage."
This module implements that extreme point so the trade-off can be
measured (see ``benchmarks/bench_ablation_reservation.py``).

Each application is reserved a fixed fraction of the device's nominal
bandwidth, enforced with a token bucket *even when the device is
otherwise idle*.  Unreserved applications share a configurable leftover
fraction through plain SFQ tags.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.base import IOScheduler
from repro.dataplane.request import IORequest
from repro.simcore import Simulator
from repro.storage import IOCompletion, StorageDevice
from repro.telemetry import TelemetryBus

__all__ = ["ReservationScheduler"]


class ReservationScheduler(IOScheduler):
    """Strict bandwidth reservations per application.

    ``reservations`` maps app id (or job name, as in the cgroups
    throttle baseline) to a fraction of ``nominal_rate``; fractions must
    sum to at most 1.  Applications without a reservation share the
    ``leftover`` fraction (equal split, paced the same way).  Dispatch
    is depth-limited like SFQ(D) so latency stays bounded.
    """

    algorithm = "reservation"
    required_params = ("reservations", "nominal_rate")

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        reservations: dict[str, float],
        nominal_rate: float,
        depth: int = 4,
        name: str = "",
        telemetry: Optional[TelemetryBus] = None,
    ):
        if nominal_rate <= 0:
            raise ValueError("nominal_rate must be positive")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        total = 0.0
        for app, frac in reservations.items():
            if not (0.0 < frac <= 1.0):
                raise ValueError(f"reservation for {app!r} must be in (0, 1]")
            total += frac
        if total > 1.0 + 1e-9:
            raise ValueError(f"reservations sum to {total:.3f} > 1")
        super().__init__(sim, device, name, telemetry=telemetry)
        self.reservations = dict(reservations)
        self.nominal_rate = float(nominal_rate)
        self.leftover = max(0.0, 1.0 - total)
        self.depth = depth
        self._queues: dict[str, deque[IORequest]] = {}
        self._next_allowed: dict[str, float] = {}
        self._armed: set[str] = set()

    def rate_for(self, app_id: str) -> float:
        """The paced byte rate of an application's reservation."""
        frac = self.reservations.get(app_id)
        if frac is None:
            _, _, job_name = app_id.partition("-")
            frac = self.reservations.get(job_name)
        if frac is None:
            # Unreserved apps split the leftover equally (at least one
            # share so they are never fully starved of pacing budget).
            n_unreserved = max(
                1,
                len([a for a in self._queues
                     if self.reservations.get(a) is None]),
            )
            frac = self.leftover / n_unreserved if self.leftover > 0 else 0.01
        return frac * self.nominal_rate

    @property
    def queued(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _enqueue(self, req: IORequest) -> None:
        app = req.app_id
        if app not in self._queues:
            self._queues[app] = deque()
            self._next_allowed[app] = 0.0
        self._queues[app].append(req)
        self._pump(app)

    def _remove(self, req: IORequest) -> None:
        # Token buckets are only charged at release: no rollback needed.
        queue = self._queues.get(req.app_id)
        if queue is None or req not in queue:
            raise ValueError(f"{req!r} is not queued at {self.name}")
        queue.remove(req)

    def _on_complete(self, req: IORequest, done: IOCompletion) -> None:
        # A freed depth slot may admit any app whose bucket allows it.
        for app in list(self._queues):
            self._pump(app)

    def _pump(self, app: str) -> None:
        if app in self._armed:
            return
        queue = self._queues.get(app)
        if not queue or self.outstanding >= self.depth:
            return
        now = self.sim.now
        allowed = self._next_allowed[app]
        if allowed <= now:
            self._release(app)
        else:
            self._armed.add(app)
            self.sim.call_at(allowed, lambda: self._disarm(app))

    def _disarm(self, app: str) -> None:
        self._armed.discard(app)
        self._pump(app)

    def _release(self, app: str) -> None:
        req = self._queues[app].popleft()
        now = self.sim.now
        self._next_allowed[app] = max(self._next_allowed[app], now) + (
            req.nbytes / self.rate_for(app)
        )
        self._dispatch_to_device(req)
        # another request of this app may already be admissible
        self._pump(app)
