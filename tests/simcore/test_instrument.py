"""Unit tests for instrumentation primitives."""

import numpy as np
import pytest

from repro.simcore import RateMeter, TimeSeries


def test_timeseries_records_and_iterates():
    ts = TimeSeries("t")
    ts.record(0.0, 1.0)
    ts.record(1.0, 2.0)
    assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
    assert len(ts) == 2


def test_timeseries_rejects_time_going_backwards():
    ts = TimeSeries("t")
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.record(4.0, 2.0)


def test_ratemeter_bucketed_rates():
    m = RateMeter("m")
    m.add(0.5, 100.0)
    m.add(1.5, 200.0)
    m.add(1.9, 100.0)
    series = m.rate_series(bucket=1.0, t_end=3.0)
    assert series.values == [100.0, 300.0, 0.0]
    assert series.times == [0.0, 1.0, 2.0]


def test_ratemeter_window_total_and_mean_rate():
    m = RateMeter("m")
    m.add(1.0, 10.0)
    m.add(2.0, 20.0)
    m.add(3.0, 30.0)
    assert m.window_total(1.0, 3.0) == 30.0
    assert m.total / 6.0 == pytest.approx(10.0)  # mean rate over [0, 6)


def test_ratemeter_rejects_negative_and_backwards():
    m = RateMeter("m")
    m.add(1.0, 10.0)
    with pytest.raises(ValueError):
        m.add(0.5, 10.0)
    with pytest.raises(ValueError):
        m.add(2.0, -1.0)


def test_ratemeter_empty_rates():
    m = RateMeter("m")
    assert m.total == 0.0
    assert m.rate_series(1.0, t_end=2.0).values == [0.0, 0.0]


# -------------------------------------------------- edge & property tests
def test_timeseries_allows_equal_timestamps():
    ts = TimeSeries("t")
    ts.record(1.0, 1.0)
    ts.record(1.0, 2.0)  # same instant: allowed, both samples kept
    assert list(ts) == [(1.0, 1.0), (1.0, 2.0)]


def test_ratemeter_window_total_half_open():
    m = RateMeter("m")
    for t, a in [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]:
        m.add(t, a)
    assert m.window_total(0.0, 2.0) == 3.0  # excludes the sample at t1
    assert m.window_total(2.0, 10.0) == 4.0  # includes the sample at t0
    assert m.window_total(3.0, 2.0) == 0.0  # inverted window is empty


def test_ratemeter_rejects_nonpositive_bucket():
    with pytest.raises(ValueError, match="bucket"):
        RateMeter("m").rate_series(bucket=0.0, t_end=1.0)


def test_ratemeter_rate_series_empty_no_t_end():
    series = RateMeter("m").rate_series(bucket=1.0)
    assert len(series) == 0


def test_ratemeter_events_past_t_end_clamp_to_last_bucket():
    m = RateMeter("m")
    m.add(0.5, 10.0)
    m.add(9.0, 30.0)  # beyond t_end: folded into the final bucket
    series = m.rate_series(bucket=1.0, t_end=3.0)
    assert series.times == [0.0, 1.0, 2.0]
    assert series.values == [10.0, 0.0, 30.0]


def _rate_series_numpy(meter, bucket, t_end=None):
    """The numpy form ``rate_series`` had: ``np.add.at`` accumulates
    unbuffered in index order, like the sequential loop that replaced
    it."""
    out = TimeSeries(f"rate:{meter.name}")
    if not meter.times and t_end is None:
        return out
    end = t_end if t_end is not None else meter.times[-1] + bucket
    n_buckets = max(1, int(np.ceil(end / bucket)))
    sums = np.zeros(n_buckets)
    if meter.times:
        idx = np.minimum(
            (np.asarray(meter.times, dtype=float) / bucket).astype(np.int64),
            n_buckets - 1,
        )
        np.add.at(sums, idx, np.asarray(meter.amounts, dtype=float))
    out.times = (np.arange(n_buckets, dtype=float) * bucket).tolist()
    out.values = (sums / bucket).tolist()
    return out


@pytest.mark.parametrize("bucket,t_end", [
    (1.0, None), (0.25, None), (0.7, 10.0), (3.0, 2.0), (1.0, 0.5),
])
def test_rate_series_matches_sequential_loop(bucket, t_end):
    """``rate_series`` is the sequential loop; numpy's ``np.add.at`` is
    its oracle."""
    rng = np.random.default_rng(20160601)
    m = RateMeter("m")
    t = 0.0
    for _ in range(500):
        t += float(rng.exponential(0.05))
        m.add(t, float(rng.uniform(0.0, 64.0)))
    got = m.rate_series(bucket, t_end=t_end)
    want = _rate_series_numpy(m, bucket, t_end=t_end)
    # Bit-identical, not approximately equal.
    assert got.times == want.times
    assert got.values == want.values
