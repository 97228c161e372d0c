"""The cgroups blkio baseline (§6, §7.4).

YARN extended with cgroups can manage I/O in two modes:

* **weight** (``blkio.weight``) — CFQ-style proportional sharing of the
  local disk among container groups.  Modelled as weighted fair queuing
  with the device's natural concurrency (a fixed, generous depth): work
  conserving, shares by weight.
* **throttle** (``blkio.throttle.*_bps_device``) — an absolute
  bytes-per-second cap per group, *non*-work-conserving.

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

__all__ = ["CgroupsThrottleScheduler", "CgroupsWeightScheduler"]


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


class CgroupsThrottleScheduler(IOScheduler):
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
        self._queues: dict[str, deque[IORequest]] = {}
        # Time at which each capped app's bucket next allows a dispatch.
        self._next_allowed: dict[str, float] = {}
        self._release_scheduled: set[str] = set()

    @classmethod
    def from_spec(cls, sim, device, spec: "PolicySpec", name: str = "",
                  telemetry: Optional[TelemetryBus] = None) -> "CgroupsThrottleScheduler":
        return cls(sim, device, dict(spec.throttle_rates), name=name,
                   telemetry=telemetry)

    def rate_for(self, app_id: str) -> float | None:
        """Cap for an application: exact app-id match, or match on the
        job name (application ids are ``appNN-<jobname>``, minted at
        submission — experiments configure caps by job name)."""
        rate = self.rates_bps.get(app_id)
        if rate is not None:
            return rate
        _, _, job_name = app_id.partition("-")
        return self.rates_bps.get(job_name) if job_name else None

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
        if app in self._release_scheduled:
            return
        queue = self._queues[app]
        if not queue:
            return
        now = self.sim.now
        allowed = self._next_allowed[app]
        if allowed <= now:
            self._release(app)
        else:
            self._release_scheduled.add(app)
            self.sim.call_at(allowed, lambda: self._released(app))

    def _released(self, app: str) -> None:
        self._release_scheduled.discard(app)
        if self._queues[app]:
            self._release(app)

    def _release(self, app: str) -> None:
        req = self._queues[app].popleft()
        now = self.sim.now
        # Pay for this request's bytes: the next dispatch waits until the
        # bucket has re-accumulated them at the capped rate.
        self._next_allowed[app] = max(self._next_allowed[app], now) + (
            req.nbytes / self.rate_for(app)
        )
        self._dispatch_to_device(req)
        self._pump(app)

    def _on_complete(self, req: IORequest, done: IOCompletion) -> None:
        pass  # pacing, not completion, drives dispatch
