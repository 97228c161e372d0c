"""Pluggable telemetry sinks.

Each sink subscribes itself to a :class:`~repro.telemetry.bus.
TelemetryBus` at construction and accumulates a particular view of the
event stream.  The figures are assembled from them — nothing reads
another component's internals, it reads (or attaches) a sink.  A
scheduler's per-app service and its per-(app, op) rate meters live in
:class:`~repro.core.base.SchedulerStats`, which the scheduler updates
before it publishes each completion; the SFQ(D2) latency window lives
in :class:`~repro.core.sfqd2.SFQD2Scheduler`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simcore.instrument import TimeSeries
from repro.telemetry.bus import TelemetryBus

__all__ = ["CounterSink", "TimeSeriesSink"]


class TimeSeriesSink:
    """Record ``(t, value(event))`` into a :class:`TimeSeries`.

    ``value`` extracts the plotted number from each event; ``when``
    optionally filters events (e.g. keep only periods with samples).
    """

    def __init__(
        self,
        bus: TelemetryBus,
        kind: str,
        value: Callable[[Any], float],
        source: Optional[str] = None,
        when: Optional[Callable[[Any], bool]] = None,
        name: str = "",
    ):
        self.series = TimeSeries(name or f"{kind}:{source or '*'}")
        self._value = value
        self._when = when
        bus.subscribe(kind, self._on_event, source=source)

    def _on_event(self, ev: Any) -> None:
        if self._when is None or self._when(ev):
            self.series.record(ev.t, self._value(ev))

    def __len__(self) -> int:
        return len(self.series)


class CounterSink:
    """Count events of one kind and sum an optional numeric field."""

    def __init__(
        self,
        bus: TelemetryBus,
        kind: str,
        source: Optional[str] = None,
        amount: Optional[Callable[[Any], float]] = None,
        name: str = "",
    ):
        self.name = name or kind
        self.count = 0
        self.total = 0.0
        self._amount = amount
        bus.subscribe(kind, self._on_event, source=source)

    def _on_event(self, ev: Any) -> None:
        self.count += 1
        if self._amount is not None:
            self.total += self._amount(ev)
