"""The stock sinks, fed by a live scheduler stack where it matters."""

from repro.config import MB, StorageProfile
from repro.core import IOClass, IORequest, IOTag, NativeScheduler
from repro.simcore import Simulator
from repro.storage import StorageDevice
from repro.telemetry import (
    DEPTH_CHANGED,
    REQUEST_COMPLETED,
    REQUEST_SUBMITTED,
    CounterSink,
    DepthChanged,
    TelemetryBus,
    TimeSeriesSink,
)

FLAT = StorageProfile(name="flat", peak_rate=100.0 * MB, n_half=0.0)


def _run_stack(bus, ops):
    """Run one native scheduler named 'n0' over the given (app, op, MB)."""
    sim = Simulator()
    dev = StorageDevice(sim, FLAT)
    sched = NativeScheduler(sim, dev, name="n0", telemetry=bus)
    for app, op, mb in ops:
        sched.submit(IORequest(sim, IOTag(app, 1.0), op, mb * MB,
                               IOClass.PERSISTENT))
    sim.run()
    return sched


def test_time_series_sink_records_value_and_filter():
    bus = TelemetryBus()
    sink = TimeSeriesSink(bus, DEPTH_CHANGED, source="s0",
                          value=lambda ev: ev.depth,
                          when=lambda ev: ev.samples > 0)
    bus.publish(DepthChanged(t=1.0, source="s0", depth=4.0, latency=0.1,
                             samples=3))
    bus.publish(DepthChanged(t=2.0, source="s0", depth=6.0, latency=0.0,
                             samples=0))  # filtered out
    bus.publish(DepthChanged(t=3.0, source="s0", depth=8.0, latency=0.2,
                             samples=1))
    assert len(sink) == 2
    assert sink.series.times == [1.0, 3.0]
    assert sink.series.values == [4.0, 8.0]


def test_counter_sink_counts_and_sums():
    bus = TelemetryBus()
    count = CounterSink(bus, REQUEST_COMPLETED, source="n0",
                        amount=lambda ev: ev.nbytes)
    submitted = CounterSink(bus, REQUEST_SUBMITTED, source="n0")
    _run_stack(bus, [("a", "read", 4), ("b", "write", 2)])
    assert count.count == 2
    assert count.total == 6 * MB
    assert submitted.count == 2
    assert submitted.total == 0.0  # no amount extractor
