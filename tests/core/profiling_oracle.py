"""Reference §4 probe the calibration is checked against.

:func:`profile_device` is the original closed loop: one generator
process per client, each waiting on one :class:`~repro.simcore.Event`
per request.  ``repro.core.profiling`` drives the device through owner
records instead and must produce every :class:`ProfilePoint` exactly.
"""

from functools import lru_cache

from repro.config import StorageProfile
from repro.core.profiling import ProfilePoint
from repro.simcore import Simulator
from repro.storage import StorageDevice
from tests.device_events import submit


@lru_cache(maxsize=None)
def profile_device(
    storage: StorageProfile,
    op: str,
    chunk: int,
    max_concurrency: int = 16,
    duration: float = 20.0,
) -> tuple[ProfilePoint, ...]:
    """Closed-loop latency/throughput sweep, one process per client."""
    points = []
    for n in range(1, max_concurrency + 1):
        sim = Simulator()
        device = StorageDevice(sim, storage, name="probe")
        latencies: list[float] = []

        def worker():
            while sim.now < duration:
                done = yield submit(device, op, chunk)
                latencies.append(done.latency)

        for _ in range(n):
            sim.process(worker())
        sim.run(until=duration * 2)  # workers stop issuing at `duration`
        elapsed = min(sim.now, duration) or duration
        throughput = device.read_meter.total + device.write_meter.total
        points.append(
            ProfilePoint(
                concurrency=n,
                latency=sum(latencies) / len(latencies),
                throughput=throughput / elapsed,
            )
        )
    return tuple(points)
