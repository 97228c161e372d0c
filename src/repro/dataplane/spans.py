"""Span accounting: queue-wait vs device-service decomposition.

A :class:`SpanRecorder` subscribes to the ``span`` telemetry kind —
which is also what *enables* span publication: schedulers only build
:class:`~repro.telemetry.Span` events when someone subscribed, so runs
without a recorder (or trace sink) pay nothing.  It aggregates one
sample list per (app, I/O class) and summarises them as
p50/p95/p99/mean — the per-request delay decomposition adaptive
policies act on (cf. BoPF's per-queue service accounting).  The
summary's :func:`mean` and :func:`percentile` equal numpy's bit for
bit; the figures' statistics use them too.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.telemetry import SPAN, Span, TelemetryBus

__all__ = ["SpanRecorder", "mean", "percentile", "percentile_summary"]

#: The percentiles a summary reports, as (label, q) pairs.
PERCENTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0))


def mean(samples: "list[float]") -> float:
    """``numpy.mean`` of a non-empty list of floats, bit for bit (NaN
    when a sample is NaN)."""
    values = list(map(float, samples))
    if not values:
        raise ValueError("mean of no samples")
    return _mean(values)


def percentile(samples: "list[float]", q: float) -> float:
    """``numpy.percentile(samples, q)`` (``linear``) of a non-empty list
    of floats, bit for bit (NaN when a sample is NaN, as numpy sorts it
    last)."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    values = list(map(float, samples))
    if not values:
        raise ValueError("percentile of no samples")
    if any(x != x for x in values):
        return math.nan
    return _percentile(sorted(values), q)


def percentile_summary(samples: "list[float]") -> dict[str, float]:
    """count/mean/p50/p95/p99 of one sample list (all 0.0 if empty):
    bit for bit what ``numpy.mean`` and ``numpy.percentile`` return."""
    if not samples:
        return {"count": 0, "mean": 0.0,
                **{label: 0.0 for label, _q in PERCENTILES}}
    values = list(map(float, samples))
    avg = _mean(values)
    out: dict[str, Any] = {"count": len(values), "mean": avg}
    # A NaN sample makes the mean NaN; numpy sorts it last and reports
    # it as every percentile.
    has_nan = avg != avg and any(x != x for x in values)
    ordered = sorted(values)
    for label, q in PERCENTILES:
        out[label] = math.nan if has_nan else _percentile(ordered, q)
    return out


def _mean(values: "list[float]") -> float:
    n = len(values)
    return (0.0 + _pairwise_sum(values, 0, n)) / n  # numpy starts at 0.0


def _pairwise_sum(values: "list[float]", lo: int, n: int) -> float:
    """numpy's pairwise sum of ``values[lo:lo + n]``: up to 128 values
    in eight interleaved partial sums, longer runs halved at a multiple
    of eight."""
    if n < 8:
        res = 0.0  # not sum(): from Python 3.12 it compensates
        for x in values[lo:lo + n]:
            res += x
        return res
    if n <= 128:
        r = values[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in values[end:lo + n]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(values, lo, n2) + _pairwise_sum(values, lo + n2, n - n2)


def _percentile(ordered: "list[float]", q: float) -> float:
    """numpy's ``linear`` percentile ``q`` of sorted, NaN-free values."""
    last = len(ordered) - 1
    index = last * (q / 100)
    if index >= last:
        # numpy reads the last value twice, at index -1 (so the weight
        # is index + 1).
        lo = hi = -1
    else:
        lo = math.floor(index)
        hi = lo + 1
    a, b, t = ordered[lo], ordered[hi], index - lo
    diff = b - a
    # numpy's _lerp: the form switches at t >= 0.5 to stay monotone.
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


class SpanRecorder:
    """Aggregates span events into per-(app, class) latency samples."""

    def __init__(self, bus: TelemetryBus, source: Optional[str] = None):
        #: (app_id, io_class) -> {"queue_wait": [...], "service": [...]}
        self.samples: dict[tuple[str, str], dict[str, list[float]]] = {}
        #: (app_id, io_class) -> terminal-state counts
        self.outcomes: dict[tuple[str, str], dict[str, int]] = {}
        self.records = 0
        bus.subscribe(SPAN, self._on_span, source=source)

    def _on_span(self, ev: Span) -> None:
        key = (ev.app_id, ev.io_class)
        outcomes = self.outcomes.setdefault(key, {})
        outcomes[ev.state] = outcomes.get(ev.state, 0) + 1
        self.records += 1
        if ev.state != "completed":
            return  # failed/cancelled spans count as outcomes only
        samples = self.samples.setdefault(
            key, {"queue_wait": [], "service": []}
        )
        samples["queue_wait"].append(ev.queue_wait)
        samples["service"].append(ev.service)

    def summary(self) -> dict[str, dict[str, dict[str, Any]]]:
        """``{app: {io_class: {queue_wait: {...}, service: {...},
        outcomes: {...}}}}`` with p50/p95/p99/mean per distribution
        (completed requests only; other terminal states appear in
        ``outcomes``).  JSON-ready and deterministic."""
        out: dict[str, dict[str, dict[str, Any]]] = {}
        for (app, io_class) in sorted(self.outcomes):
            samples = self.samples.get(
                (app, io_class), {"queue_wait": [], "service": []}
            )
            out.setdefault(app, {})[io_class] = {
                "queue_wait": percentile_summary(samples["queue_wait"]),
                "service": percentile_summary(samples["service"]),
                "outcomes": dict(sorted(
                    self.outcomes[(app, io_class)].items()
                )),
            }
        return out
