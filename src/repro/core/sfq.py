"""SFQ and SFQ(D): start-time fair queuing with bounded dispatch depth (§4).

SFQ (Goyal et al.) assigns each request a *start tag*
``S = max(v, F_prev(flow) + delay)`` and a *finish tag*
``F = S + cost / weight``; the virtual time ``v`` advances to the start
tag of the most recently dispatched request; dispatch order is by
smallest start tag.  SFQ(D) (Jin et al., SIGMETRICS'04) lets up to ``D``
requests be outstanding at the storage concurrently.

The ``delay`` term is 0 for plain SFQ(D); the Scheduling Broker adds
DSFQ total-service delays through :meth:`add_start_delay` (§5).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from repro.core.base import IOScheduler
from repro.dataplane.request import IORequest
from repro.simcore import Simulator
from repro.storage import IOCompletion, StorageDevice
from repro.telemetry import TelemetryBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policy import PolicySpec

__all__ = ["SFQDScheduler"]

# Tag arithmetic uses MB so float precision is comfortable even for
# terabyte-scale experiments (tags stay < 1e9 for realistic weights).
_COST_UNIT = float(1 << 20)


class SFQDScheduler(IOScheduler):
    """Proportional-share scheduler with a static dispatch depth ``D``."""

    algorithm = "sfq(d)"
    aliases = ("sfqd",)
    supports_coordination = True

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        depth: int = 4,
        name: str = "",
        telemetry: Optional[TelemetryBus] = None,
    ):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        super().__init__(sim, device, name, telemetry=telemetry)
        self._depth = float(depth)
        self.virtual_time = 0.0
        self._finish_tags: dict[str, float] = {}
        self._pending_delay: dict[str, float] = {}
        self._queue: list[tuple[float, int, IORequest]] = []
        self._seq = 0

    @classmethod
    def from_spec(cls, sim, device, spec: "PolicySpec", name: str = "",
                  telemetry: Optional[TelemetryBus] = None) -> "SFQDScheduler":
        return cls(sim, device, depth=spec.depth, name=name, telemetry=telemetry)

    # ------------------------------------------------------------------ api
    @property
    def depth(self) -> int:
        """Current dispatch depth D (integral part used for admission)."""
        return max(1, int(self._depth))

    @property
    def queued(self) -> int:
        return len(self._queue)

    def add_start_delay(self, app_id: str, delay_cost: float) -> None:
        """DSFQ coordination (§5): delay the app's next request's start
        tag by ``delay_cost`` (already divided by the app's weight —
        i.e. in virtual-time units)."""
        if delay_cost < 0:
            raise ValueError("delay must be non-negative")
        self._pending_delay[app_id] = self._pending_delay.get(app_id, 0.0) + delay_cost

    # -------------------------------------------------------------- internals
    def _enqueue(self, req: IORequest) -> None:
        app = req.app_id
        delay = self._pending_delay.pop(app, 0.0)
        prev_finish = self._finish_tags.get(app, 0.0)
        start = max(self.virtual_time, prev_finish + delay)
        cost = (req.nbytes / _COST_UNIT) / req.weight
        finish = start + cost
        req.start_tag = start
        req.finish_tag = finish
        req.prev_finish = prev_finish  # for cancellation tag rollback
        self._finish_tags[app] = finish
        self._seq += 1
        heapq.heappush(self._queue, (start, self._seq, req))
        self._try_dispatch()

    def _remove(self, req: IORequest) -> None:
        """Withdraw a queued request (cancellation).

        The heap is rebuilt without the request — O(queue) on the rare
        cancel path, zero cost on the hot path.  The app's finish-tag
        chain is rolled back when the cancelled request is its tail, so
        an identical subsequent workload receives identical tags.
        Virtual time and ``outstanding`` are untouched: both advance
        only on dispatch, which never happened.  A DSFQ start delay
        consumed at enqueue is *not* restored — the broker re-derives
        delays from total service each sync period (§5).
        """
        n = len(self._queue)
        self._queue = [e for e in self._queue if e[2] is not req]
        if len(self._queue) == n:
            raise ValueError(f"{req!r} is not queued at {self.name}")
        heapq.heapify(self._queue)
        app = req.app_id
        if self._finish_tags.get(app) == req.finish_tag:
            self._finish_tags[app] = req.prev_finish

    def _try_dispatch(self) -> None:
        if not self._queue:
            return
        depth = self.depth  # dispatching never changes D
        while self._queue and self.outstanding < depth:
            start, _seq, req = heapq.heappop(self._queue)
            self.virtual_time = max(self.virtual_time, start)
            self._dispatch_to_device(req)

    def _on_complete(self, req: IORequest, done: IOCompletion) -> None:
        self._try_dispatch()
