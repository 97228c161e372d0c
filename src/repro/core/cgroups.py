"""The cgroups blkio baseline (§6, §7.4).

YARN extended with cgroups can manage I/O in two modes:

* **weight** (``blkio.weight``) — CFQ-style proportional sharing of the
  local disk among container groups.  Modelled as weighted fair queuing
  with the device's natural concurrency (a fixed, generous depth): work
  conserving, shares by weight.
* **throttle** (``blkio.throttle.*_bps_device``) — an absolute
  bytes-per-second cap per group, *non*-work-conserving: a
  :class:`PacedScheduler`, the token-bucket pacer the §9 reservation
  scheduler (:mod:`repro.core.reservation`) is built on too.

Crucially, in either mode cgroups sees **only the I/Os a container
issues directly to the local file system** — the intermediate
spill/merge traffic.  HDFS I/Os are serviced by the shared Data Node
daemon and shuffle reads by the shared Node Manager servlet, which run
outside any application container, so cgroups cannot differentiate
them.  Both schedulers therefore declare ``manages_classes =
{INTERMEDIATE}`` — the restriction is a declared capability, and the
interposition layer falls back to native for the other classes.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.base import IOScheduler
from repro.core.sfq import SFQDScheduler
from repro.dataplane.request import IORequest
from repro.dataplane.tags import IOClass
from repro.simcore import Simulator
from repro.storage import IOCompletion, StorageDevice
from repro.telemetry import TelemetryBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policy import PolicySpec

__all__ = ["CgroupsThrottleScheduler", "CgroupsWeightScheduler", "PacedScheduler"]


class CgroupsWeightScheduler(SFQDScheduler):
    """``blkio.weight`` proportional sharing.

    CFQ time-slices the disk between groups by weight but keeps the
    device's native queue depth; we model it as SFQ with a fixed,
    generous depth.  Weights are taken from the request tags (the
    experiment uses 100:1 in favour of TPC-H).
    """

    algorithm = "cgroups-weight"
    aliases = ()
    manages_classes = frozenset({IOClass.INTERMEDIATE})
    supports_coordination = False  # no DSFQ hooks in the kernel baseline

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        name: str = "",
        telemetry: Optional[TelemetryBus] = None,
    ):
        super().__init__(sim, device, depth=8, name=name, telemetry=telemetry)

    @classmethod
    def from_spec(cls, sim, device, spec: "PolicySpec", name: str = "",
                  telemetry: Optional[TelemetryBus] = None) -> "CgroupsWeightScheduler":
        return cls(sim, device, name=name, telemetry=telemetry)


class PacedScheduler(IOScheduler):
    """Per-app token buckets that never lend idle bandwidth: what
    ``blkio.throttle`` and the §9 reservation scheduler share.

    Subclasses set ``depth`` (requests at the device at once) and
    :meth:`rate_for` (bytes/s, or ``None`` to send the app's requests
    straight to the device).  A bucket is charged at release, so an
    app's next request waits until this one's bytes re-accumulate at its
    rate, however idle the device.  No ``algorithm``: not a policy.
    """

    depth: float = math.inf

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        name: str = "",
        telemetry: Optional[TelemetryBus] = None,
    ):
        super().__init__(sim, device, name, telemetry=telemetry)
        self._queues: dict[str, deque[IORequest]] = {}
        # Time at which each paced app's bucket next allows a dispatch.
        self._next_allowed: dict[str, float] = {}
        self._armed: set[str] = set()

    def rate_for(self, app_id: str) -> float | None:
        raise NotImplementedError

    @staticmethod
    def _lookup(table: dict[str, float], app_id: str) -> float | None:
        """Exact app-id match, or match on the job name (application ids
        are ``appNN-<jobname>``, minted at submission — experiments
        configure rates by job name)."""
        value = table.get(app_id)
        if value is not None:
            return value
        _, _, job_name = app_id.partition("-")
        return table.get(job_name) if job_name else None

    @property
    def queued(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _enqueue(self, req: IORequest) -> None:
        app = req.app_id
        if self.rate_for(app) is None:
            self._dispatch_to_device(req)
            return
        if app not in self._queues:
            self._queues[app] = deque()
            self._next_allowed[app] = 0.0
        self._queues[app].append(req)
        self._pump(app)

    def _remove(self, req: IORequest) -> None:
        # The token bucket is only charged at release, so withdrawing a
        # queued request needs no bucket rollback.
        queue = self._queues.get(req.app_id)
        if queue is None or req not in queue:
            raise ValueError(f"{req!r} is not queued at {self.name}")
        queue.remove(req)

    def _pump(self, app: str) -> None:
        # A full depth waits for a completion, which pumps every app.
        if (app in self._armed or not self._queues[app]
                or self.outstanding >= self.depth):
            return
        allowed = self._next_allowed[app]
        if allowed <= self.sim.now:
            self._release(app)
        else:
            self._armed.add(app)
            self.sim.call_at(allowed, lambda: self._fire(app))

    def _fire(self, app: str) -> None:
        # The bucket allows a dispatch now: no second look at the clock.
        self._armed.discard(app)
        if self._queues[app] and self.outstanding < self.depth:
            self._release(app)

    def _release(self, app: str) -> None:
        req = self._queues[app].popleft()
        now = self.sim.now
        # Pay for this request's bytes: the next dispatch waits until the
        # bucket has re-accumulated them at the app's rate.
        self._next_allowed[app] = max(self._next_allowed[app], now) + (
            req.nbytes / self.rate_for(app)
        )
        self._dispatch_to_device(req)
        self._pump(app)

    def _on_complete(self, req: IORequest, done: IOCompletion) -> None:
        # A freed depth slot may admit any app whose bucket allows it.
        for app in list(self._queues):
            self._pump(app)


class CgroupsThrottleScheduler(PacedScheduler):
    """``blkio.throttle`` absolute rate caps.

    Applications listed in ``rates_bps`` are paced to their cap with a
    token-bucket; everything else passes straight through.  Throttling
    is non-work-conserving: spare bandwidth is *not* given to a capped
    application, which is why the paper finds it hurts the competing
    TeraSort by up to 16% (§7.4).
    """

    algorithm = "cgroups-throttle"
    manages_classes = frozenset({IOClass.INTERMEDIATE})
    required_params = ("throttle_rates",)

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        rates_bps: dict[str, float],
        name: str = "",
        telemetry: Optional[TelemetryBus] = None,
    ):
        for app, rate in rates_bps.items():
            if rate <= 0:
                raise ValueError(f"throttle rate for {app!r} must be positive")
        super().__init__(sim, device, name, telemetry=telemetry)
        self.rates_bps = dict(rates_bps)

    @classmethod
    def from_spec(cls, sim, device, spec: "PolicySpec", name: str = "",
                  telemetry: Optional[TelemetryBus] = None) -> "CgroupsThrottleScheduler":
        return cls(sim, device, dict(spec.throttle_rates), name=name,
                   telemetry=telemetry)

    def rate_for(self, app_id: str) -> float | None:
        """An application's cap, by app id or job name; ``None`` if it
        is not capped."""
        return self._lookup(self.rates_bps, app_id)
