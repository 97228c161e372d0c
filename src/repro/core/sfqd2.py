"""SFQ(D2): dynamic-depth SFQ via an integral latency controller (§4).

The controller runs every ``period`` seconds and updates

    D(k+1) = D(k) + K · (Lref − L(k))                         (Eq. 1)

where ``L(k)`` is the average device latency of requests completed in
period ``k``.  When the storage is asymmetric (SSD), separate read and
write reference latencies are blended by the read/write mix observed in
the previous period (§4, last paragraph):

    Lref(k) = p_read · Lref_read + (1 − p_read) · Lref_write
    L(k)    = p_read · L_read(k) + (1 − p_read) · L_write(k)

``D`` is kept as a float internally (so small errors integrate) and
clamped to ``[d_min, d_max]``; the integral part is the admission depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.sfq import SFQDScheduler
from repro.dataplane import IORequest
from repro.simcore import Simulator
from repro.storage import IOCompletion, StorageDevice
from repro.telemetry import DEPTH_CHANGED, DepthChanged, TelemetryBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policy import PolicySpec

__all__ = ["DepthController", "SFQD2Scheduler"]


@dataclass(frozen=True)
class DepthController:
    """Parameters of the Eq. 1 feedback controller.

    ``gain`` is the integral gain K in depth-units per second of latency
    error.  The paper quotes K = 1e-6 with latency in its internal units;
    here latency is in seconds, so an equivalent gain is O(10–100).
    """

    ref_latency_read: float
    ref_latency_write: float
    gain: float = 60.0
    period: float = 1.0
    d_min: float = 1.0
    d_max: float = 12.0
    d_init: float = 8.0

    def __post_init__(self):
        if self.ref_latency_read <= 0 or self.ref_latency_write <= 0:
            raise ValueError("reference latencies must be positive")
        if self.gain <= 0:
            raise ValueError("gain must be positive")
        if self.period <= 0:
            raise ValueError("control period must be positive")
        if not (1.0 <= self.d_min <= self.d_init <= self.d_max):
            raise ValueError(
                f"need 1 <= d_min <= d_init <= d_max, got "
                f"{self.d_min}/{self.d_init}/{self.d_max}"
            )

    @classmethod
    def symmetric(cls, ref_latency: float, **kwargs) -> "DepthController":
        """Controller for storage with symmetric read/write latency (HDD)."""
        return cls(
            ref_latency_read=ref_latency, ref_latency_write=ref_latency, **kwargs
        )

    def update(self, d: float, reads: list[float], writes: list[float]) -> float:
        """One Eq. 1 step given the period's completed-request latencies."""
        n = len(reads) + len(writes)
        if n == 0:
            return d  # idle period: hold D (no observation to act on)
        p_read = len(reads) / n
        l_read = sum(reads) / len(reads) if reads else 0.0
        l_write = sum(writes) / len(writes) if writes else 0.0
        l_k = p_read * l_read + (1.0 - p_read) * l_write
        l_ref = p_read * self.ref_latency_read + (1.0 - p_read) * self.ref_latency_write
        d = d + self.gain * (l_ref - l_k)
        return min(self.d_max, max(self.d_min, d))


class SFQD2Scheduler(SFQDScheduler):
    """SFQ with the depth adapted online by :class:`DepthController`.

    The scheduler keeps the device latencies (dispatch -> completion)
    of the current control period, split by op; each control tick takes
    and resets them.  Every control period, if anyone subscribes, the
    scheduler publishes a ``depth_changed`` telemetry event carrying the
    updated D and the period's observed average latency.  The two
    traces of Fig. 7 are :class:`~repro.telemetry.TimeSeriesSink` views
    of that event stream (the scenario runner's ``depth_trace`` metric).
    """

    algorithm = "sfq(d2)"
    aliases = ("sfqd2",)
    required_params = ("controller",)

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        controller: DepthController,
        name: str = "",
        telemetry: Optional[TelemetryBus] = None,
    ):
        super().__init__(sim, device, depth=int(controller.d_init), name=name,
                         telemetry=telemetry)
        self.controller = controller
        self._depth = float(controller.d_init)
        self._tick_scheduled = False
        self.window_read_latencies: list[float] = []
        self.window_write_latencies: list[float] = []

    @classmethod
    def from_spec(cls, sim, device, spec: "PolicySpec", name: str = "",
                  telemetry: Optional[TelemetryBus] = None) -> "SFQD2Scheduler":
        assert spec.controller is not None  # guaranteed by spec validation
        return cls(sim, device, spec.controller, name=name, telemetry=telemetry)

    def _enqueue(self, req) -> None:
        super()._enqueue(req)
        self._ensure_tick()

    def _on_complete(self, req: IORequest,
                     done: Optional[IOCompletion]) -> None:
        if done is not None:
            if req.op == "read":
                self.window_read_latencies.append(done.latency)
            else:
                self.window_write_latencies.append(done.latency)
        # SFQ(D)'s hook, inlined: this runs once per completed request.
        self._try_dispatch()

    def drain_window(self) -> tuple[list[float], list[float]]:
        """Return and reset the (reads, writes) latency window."""
        reads, self.window_read_latencies = self.window_read_latencies, []
        writes, self.window_write_latencies = self.window_write_latencies, []
        return reads, writes

    def _ensure_tick(self) -> None:
        """The control loop runs only while the scheduler has work, so an
        idle simulation can drain its event queue."""
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self.sim.call_in(self.controller.period, self._control_tick)

    def _control_tick(self) -> None:
        self._tick_scheduled = False
        reads, writes = self.drain_window()
        old_depth = self.depth
        self._depth = self.controller.update(self._depth, reads, writes)
        telemetry = self.telemetry
        if telemetry.publishes(DEPTH_CHANGED):
            n = len(reads) + len(writes)
            avg = (sum(reads) + sum(writes)) / n if n else 0.0
            telemetry.publish(DepthChanged(
                t=self.sim.now, source=self.name, depth=self._depth,
                latency=avg, samples=n,
            ))
        if self.depth > old_depth:
            self._try_dispatch()  # deeper window may admit queued requests
        if self.outstanding > 0 or self.queued > 0:
            self._ensure_tick()
