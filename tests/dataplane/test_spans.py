"""Span accounting: recorder aggregation, trace schema, manifest metric."""

import io
import math
import random

import numpy as np
import pytest

from repro.config import MB, StorageProfile, default_cluster
from repro.core import PolicySpec, SFQDScheduler
from repro.dataplane import (
    CancelScope,
    IOClass,
    IORequest,
    IOTag,
    SpanRecorder,
    percentile_summary,
)
from repro.dataplane.spans import PERCENTILES, mean, percentile
from repro.scenario import Scenario, run_scenario, wc_teragen_isolation
from repro.simcore import Simulator
from repro.storage import StorageDevice
from repro.telemetry import (
    SPAN,
    JsonLinesTraceSink,
    Span,
    TelemetryBus,
    event_record,
    validate_trace_line,
    validate_trace_record,
)

FLAT = StorageProfile(name="flat", peak_rate=100.0 * MB, n_half=0.0)


def span(app="a", state="completed", wait=0.5, service=1.0):
    return Span(t=2.0, source="dn00:persistent", app_id=app, op="read",
                nbytes=1 * MB, io_class="persistent", state=state,
                queue_wait=wait, service=service)


def test_percentile_summary():
    empty = percentile_summary([])
    assert empty == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                     "p99": 0.0}
    s = percentile_summary([1.0, 2.0, 3.0, 4.0])
    assert s["count"] == 4
    assert s["mean"] == pytest.approx(2.5)
    assert s["p50"] == pytest.approx(2.5)
    assert s["p95"] >= s["p50"]
    assert s["p99"] >= s["p95"]


def _numpy_summary(samples):
    arr = np.asarray(samples, dtype=float)
    return {"count": arr.size, "mean": float(arr.mean()),
            **{label: float(np.percentile(arr, q))
               for label, q in PERCENTILES}}


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 10000])
def test_percentile_summary_is_numpys_mean_and_percentiles(n):
    """Sizes straddle the pairwise sum's 8-value unroll and 128-value
    blocks; the value mixes put interpolation weights on both sides of
    numpy's 0.5 switch."""
    rnd = random.Random(n)
    for samples in (
        [rnd.expovariate(1.0) * 10 ** rnd.uniform(-6, 3) for _ in range(n)],
        [rnd.uniform(-1e6, 1e6) for _ in range(n)],
        [rnd.choice((0.1, 0.2, 0.3, 1e-9)) for _ in range(n)],
    ):
        assert percentile_summary(samples) == _numpy_summary(samples)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 10000])
def test_mean_and_percentile_are_numpys(n):
    """The figures' statistics (fig7's mean and p95, fig9's mean, p50
    and p90), over the sizes and value mixes of the summary test."""
    rnd = random.Random(n)
    for samples in (
        [rnd.expovariate(1.0) * 10 ** rnd.uniform(-6, 3) for _ in range(n)],
        [rnd.uniform(-1e6, 1e6) for _ in range(n)],
        [rnd.choice((0.1, 0.2, 0.3, 1e-9)) for _ in range(n)],
    ):
        assert mean(samples) == float(np.mean(samples))
        for q in (50, 90, 95):
            assert percentile(samples, q) == float(np.percentile(samples, q))


def test_mean_and_percentile_of_a_nan_are_nan_like_numpy():
    samples = [1.0, float("nan"), 2.0]
    assert math.isnan(mean(samples)) and math.isnan(np.mean(samples))
    for q in (0, 50, 100):
        assert math.isnan(percentile(samples, q))
        assert math.isnan(np.percentile(samples, q))


def test_mean_and_percentile_reject_no_samples_and_q_out_of_range():
    with pytest.raises(ValueError):
        mean([])
    with pytest.raises(ValueError):
        percentile([], 50)
    for q in (-1, 101):  # numpy rejects these too
        with pytest.raises(ValueError):
            percentile([1.0], q)
        with pytest.raises(ValueError):
            np.percentile([1.0], q)


def test_percentile_summary_of_a_nan_is_nan_like_numpy():
    samples = [1.0, float("nan"), 2.0]
    ours, theirs = percentile_summary(samples), _numpy_summary(samples)
    assert ours["count"] == theirs["count"] == 3
    for key in ("mean", "p50", "p95", "p99"):
        assert math.isnan(ours[key]) and math.isnan(theirs[key])


def test_recorder_aggregates_by_app_and_class():
    bus = TelemetryBus()
    rec = SpanRecorder(bus)
    assert bus.publishes(SPAN)  # subscribing is what enables publication
    bus.publish(span(wait=0.1, service=1.0))
    bus.publish(span(wait=0.3, service=2.0))
    bus.publish(span(state="cancelled", wait=0.7, service=0.0))
    bus.publish(span(app="b", state="failed"))
    assert rec.records == 4
    summary = rec.summary()
    cell = summary["a"]["persistent"]
    # Only completed requests contribute latency samples.
    assert cell["queue_wait"]["count"] == 2
    assert cell["queue_wait"]["mean"] == pytest.approx(0.2)
    assert cell["service"]["p50"] == pytest.approx(1.5)
    assert cell["outcomes"] == {"cancelled": 1, "completed": 2}
    assert summary["b"]["persistent"]["outcomes"] == {"failed": 1}
    assert summary["b"]["persistent"]["queue_wait"]["count"] == 0


def test_span_trace_record_validates():
    rec = event_record(span())
    assert rec["kind"] == "span"
    validate_trace_record(rec)
    bad = dict(rec, state="pending")
    with pytest.raises(ValueError, match="bad span state"):
        validate_trace_record(bad)


def test_scheduler_emits_spans_matching_lifecycle():
    sim = Simulator()
    bus = TelemetryBus()
    rec = SpanRecorder(bus)
    sched = SFQDScheduler(sim, StorageDevice(sim, FLAT), depth=1,
                          name="dn00:persistent", telemetry=bus)
    scope = CancelScope()
    reqs = [
        IORequest(sim, IOTag("a", 1.0).scoped(scope), "write", 4 * MB,
                  IOClass.PERSISTENT)
        for _ in range(3)
    ]
    for req in reqs:
        sched.submit(req)
    scope.cancel()  # withdraws the two still-queued requests
    sim.run()
    cell = rec.summary()["a"]["persistent"]
    assert cell["outcomes"] == {"cancelled": 2, "completed": 1}
    assert cell["queue_wait"]["count"] == 1
    assert cell["queue_wait"]["p50"] == pytest.approx(reqs[0].queue_wait)
    assert cell["service"]["p50"] == pytest.approx(reqs[0].service_time)


def test_trace_sink_captures_span_records():
    sim = Simulator()
    bus = TelemetryBus()
    buf = io.StringIO()
    with JsonLinesTraceSink(bus, buf, kinds=[SPAN]) as sink:
        sched = SFQDScheduler(sim, StorageDevice(sim, FLAT), depth=1,
                              name="dn00:tmp", telemetry=bus)
        for _ in range(2):
            sched.submit(IORequest(sim, IOTag("a", 1.0), "write", 2 * MB,
                                   IOClass.INTERMEDIATE))
        sim.run()
        assert sink.records == 2
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = validate_trace_line(line)
        assert rec["kind"] == "span"
        assert rec["state"] == "completed"
        assert rec["service"] > 0


def test_latency_metric_lands_in_manifest():
    config = default_cluster(scale=1.0 / 256)
    s = wc_teragen_isolation(config, PolicySpec.sfqd(depth=4),
                             name="latency-test")
    d = s.to_dict()
    d["measure"]["metrics"] = ["runtime", "latency"]
    man = run_scenario(Scenario.from_dict(d))
    latency = man.summary["latency"]
    assert latency, "no latency cells recorded"
    for app, classes in latency.items():
        for io_class, cell in classes.items():
            assert cell["queue_wait"]["count"] > 0, (app, io_class)
            assert cell["service"]["p95"] >= cell["service"]["p50"] >= 0.0
    # Span observation must not perturb the schedule itself.
    base = run_scenario(s)
    assert {r["entry"]: r["runtime"] for r in man.rows} == \
        {r["entry"]: r["runtime"] for r in base.rows}
