"""Instrumentation: time series and rate meters.

These are the probes behind every figure in the paper: Fig. 2's
throughput-vs-time profiles, Fig. 7's depth/latency traces, and the
windowed per-application service the scenario runner reports.  A
:class:`RateMeter` keeps one ``(time, amount)`` sample per event and
lives on the interposed schedulers; a :class:`TotalMeter` keeps only
the running total and lives on every device.
"""

from __future__ import annotations

import bisect
import math

__all__ = ["RateMeter", "TimeSeries", "TotalMeter"]


class TimeSeries:
    """An append-only sequence of ``(time, value)`` samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(
                f"non-monotone time in series {self.name!r}: {t} < {self.times[-1]}"
            )
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))


class RateMeter:
    """Accumulates (time, amount) events and reports windowed rates.

    Used to turn completed-I/O byte counts into MB/s-vs-time series for
    the throughput figures.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.amounts: list[float] = []
        self.total = 0.0
        self._last = float("-inf")  # times[-1], cached for add()

    def add(self, t: float, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"negative amount in rate meter {self.name!r}")
        if t < self._last:
            raise ValueError(f"non-monotone time in rate meter {self.name!r}")
        self._last = t
        self.times.append(t)
        self.amounts.append(amount)
        self.total += amount

    def rate_series(self, bucket: float, t_end: float | None = None) -> TimeSeries:
        """Bucketed rate (amount per second) over [0, t_end); samples at
        or past ``t_end`` fold into the last bucket.  Each bucket sums
        its samples in time order."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        out = TimeSeries(f"rate:{self.name}")
        if not self.times and t_end is None:
            return out
        end = t_end if t_end is not None else self.times[-1] + bucket
        n_buckets = max(1, math.ceil(end / bucket))
        last = n_buckets - 1
        sums = [0.0] * n_buckets
        for t, amount in zip(self.times, self.amounts):
            sums[min(int(t / bucket), last)] += amount
        out.times = [i * bucket for i in range(n_buckets)]
        out.values = [s / bucket for s in sums]
        return out

    def window_total(self, t0: float, t1: float) -> float:
        """Sum of amounts recorded in [t0, t1)."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        return float(sum(self.amounts[lo:hi]))


class TotalMeter:
    """A :class:`RateMeter` reduced to its running ``total``: a device's
    completed bytes per op.  The time-stamped samples of a completed
    request are kept once, by the scheduler that issued it."""

    __slots__ = ("name", "total")

    def __init__(self, name: str = ""):
        self.name = name
        self.total = 0.0
