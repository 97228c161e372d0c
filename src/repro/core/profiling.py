"""Offline reference-latency profiling (§4).

The SFQ(D2) controller needs a reference latency ``Lref``: the latency
observed *just before the storage starts to saturate*.  The paper
obtains it by profiling the storage once per setup with a synthetic
MapReduce workload of increasing I/O concurrency, measuring latency and
throughput at each level.  We reproduce that procedure against the
device model: a closed-loop workload at fixed concurrency ``n`` issues
chunk-sized requests back-to-back; we sweep ``n`` and pick the latency
at the lowest concurrency whose throughput reaches a saturation
fraction of the maximum.

For asymmetric storage (SSD), reads and writes are profiled separately,
giving the split references the controller blends at runtime.  When the
two cannot differ on the device model, one sweep serves both (see
:func:`calibrate_controller`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ClusterConfig, StorageProfile
from repro.core.sfqd2 import DepthController
from repro.simcore import Simulator
from repro.storage import StorageDevice
from repro.telemetry import FLUSH_SPIKE, TelemetryBus

__all__ = ["ProfilePoint", "profile_device", "calibrate_controller"]

#: The §4 sweep: levels 1.._LEVELS, each issuing for _DURATION seconds.
_LEVELS = 16
_DURATION = 20.0


@dataclass(frozen=True)
class ProfilePoint:
    """Measured behaviour at one concurrency level."""

    concurrency: int
    latency: float      # mean request latency, seconds
    throughput: float   # bytes / second


class _ClosedLoop:
    """The clients of one level, as the owner of their requests: each
    completion records its latency and, while ``sim.now < duration``,
    resubmits at once, where a per-client process would have resumed."""

    __slots__ = ("device", "op", "chunk", "duration", "latencies")

    def __init__(self, device: StorageDevice, op: str, chunk: int, duration: float):
        self.device = device
        self.op = op
        self.chunk = chunk
        self.duration = duration
        self.latencies: list[float] = []

    def issue(self) -> None:
        device = self.device
        if device.sim.now < self.duration:
            device.submit(self.op, self.chunk, self)

    def _on_device_event(self, _req, record) -> None:
        self.latencies.append(record._value.latency)
        self.issue()


def profile_device(
    storage: StorageProfile,
    op: str,
    chunk: int,
    max_concurrency: int = _LEVELS,
    duration: float = _DURATION,
    telemetry: TelemetryBus | None = None,
) -> list[ProfilePoint]:
    """Closed-loop latency/throughput sweep over concurrency levels,
    each level's device publishing on ``telemetry``."""
    if op not in ("read", "write"):
        raise ValueError(f"unknown op {op!r}")
    points = []
    for n in range(1, max_concurrency + 1):
        sim = Simulator()
        device = StorageDevice(sim, storage, name="probe", telemetry=telemetry)
        loop = _ClosedLoop(device, op, chunk, duration)
        for _ in range(n):
            loop.issue()
        # Clients stop issuing at `duration`; the run drains the rest.
        sim.run(until=duration * 2)
        latencies = loop.latencies
        if not latencies:
            raise ValueError(
                f"profile {storage.name!r}: no {op} of {chunk} bytes completed "
                f"within {duration * 2:g} s at concurrency {n}"
            )
        throughput = device.read_meter.total + device.write_meter.total
        points.append(
            ProfilePoint(
                concurrency=n,
                latency=sum(latencies) / len(latencies),
                throughput=throughput / duration,
            )
        )
    return points


def reference_latency(
    points: list[ProfilePoint], saturation_fraction: float = 0.9
) -> float:
    """Latency at the knee: the lowest concurrency whose throughput is
    within ``saturation_fraction`` of the sweep maximum."""
    if not points:
        raise ValueError("empty profile")
    if not (0 < saturation_fraction <= 1):
        raise ValueError("saturation_fraction must be in (0, 1]")
    peak = max(p.throughput for p in points)
    for p in points:
        if p.throughput >= saturation_fraction * peak:
            return p.latency
    return points[-1].latency  # pragma: no cover - unreachable by construction


def calibrate_controller(
    config: ClusterConfig,
    gain: float = 30.0,
    period: float = 1.0,
    d_max: float = 12.0,
    saturation_fraction: float = 0.9,
) -> DepthController:
    """The full §4 procedure: profile reads and writes, build a controller.

    Needs to be run once per storage setup (the result is deterministic
    for a given profile, so experiments may also cache it).

    Writes are profiled first.  When reads cost the same work as writes
    and no write started a flush storm, the device did the same float
    operations a read sweep would, so the read points are the write
    points; otherwise reads get their own sweep.
    """
    storage, chunk = config.storage, config.io_chunk
    storms: list = []
    bus = TelemetryBus()
    bus.subscribe(FLUSH_SPIKE, storms.append)
    write_points = profile_device(storage, "write", chunk, telemetry=bus)
    if storage.read_cost == storage.write_cost and not storms:
        read_points = write_points
    else:
        read_points = profile_device(storage, "read", chunk)
    return DepthController(
        ref_latency_read=reference_latency(read_points, saturation_fraction),
        ref_latency_write=reference_latency(write_points, saturation_fraction),
        gain=gain,
        period=period,
        d_max=d_max,
        d_init=min(8.0, d_max),
    )
