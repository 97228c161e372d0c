"""Non-work-conserving reservation scheduler (§9's extreme point).

The discussion section observes that IBIS can trade resource
utilization for isolation by choice of scheduler, and that "in the
extreme case, a non-work-conserving scheduler can provide strict
performance isolation but may severely underutilize the storage."
This module implements that extreme point so the trade-off can be
measured (see ``benchmarks/bench_ablation_reservation.py``).

Each application is reserved a fixed fraction of the device's nominal
bandwidth, enforced with a token bucket *even when the device is
otherwise idle* (:class:`~repro.core.cgroups.PacedScheduler`, the
mechanism the cgroups throttle baseline uses too).  Applications
without a reservation split what the reservations leave over equally,
each paced by a bucket of its own.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cgroups import PacedScheduler
from repro.simcore import Simulator
from repro.storage import StorageDevice
from repro.telemetry import TelemetryBus

__all__ = ["ReservationScheduler"]


class ReservationScheduler(PacedScheduler):
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

    def rate_for(self, app_id: str) -> float:
        """The paced byte rate of an application's reservation."""
        frac = self._lookup(self.reservations, app_id)
        if frac is None:
            # Unreserved apps split the leftover equally (at least one
            # share so they are never fully starved of pacing budget).
            n_unreserved = max(1, sum(
                1 for a in self._queues
                if self._lookup(self.reservations, a) is None
            ))
            frac = self.leftover / n_unreserved if self.leftover > 0 else 0.01
        return frac * self.nominal_rate
