"""JSON-lines trace export: schema validation and end-to-end capture."""

import dataclasses
import io
import json

import pytest

from repro.config import default_cluster
from repro.core import DepthController, PolicySpec
from repro.scenario import load_scenario, run_scenario, single_app
from repro.telemetry import (
    EVENT_TYPES,
    REQUEST_COMPLETED,
    JsonLinesTraceSink,
    RequestCompleted,
    TelemetryBus,
    event_record,
    validate_trace_file,
    validate_trace_line,
    validate_trace_record,
)

TINY = default_cluster(scale=1 / 256)


def _record(**overrides):
    rec = {
        "kind": "request_completed", "t": 1.5, "source": "dn00:persistent",
        "app_id": "app01-wc", "op": "read", "nbytes": 4096,
        "io_class": "persistent", "latency": 0.01, "weight": 2.0,
    }
    rec.update(overrides)
    return {k: v for k, v in rec.items() if v is not None}


def test_valid_records_pass():
    validate_trace_record(_record())
    validate_trace_record(_record(t=2))  # int where float expected: ok
    for kind, extra in (
        ("depth_changed", {"depth": 4.0, "latency": 0.1, "samples": 3}),
        ("broker_sync", {"scope": "persistent", "apps": 2,
                         "message_bytes": 96}),
        ("flush_spike", {"until": 3.5, "factor": 0.35}),
    ):
        rec = {"kind": kind, "t": 1.0, "source": "dn00:persistent", **extra}
        validate_trace_record(rec)


@pytest.mark.parametrize("breakage", [
    {"kind": "no_such_event"},
    {"kind": None},
    {"latency": None},                  # missing required field
    {"latency": "fast"},                # wrong type
    {"nbytes": 1.5},                    # float where int required
    {"nbytes": True},                   # bool is not an int here
    {"op": "append"},                   # enum violation
    {"io_class": "ephemeral"},          # enum violation
    {"surprise": 42},                   # unknown extra field
])
def test_invalid_records_rejected(breakage):
    with pytest.raises(ValueError):
        validate_trace_record(_record(**breakage))


def test_validate_trace_line_parses_json():
    rec = validate_trace_line(json.dumps(_record()))
    assert rec["kind"] == "request_completed"
    with pytest.raises(ValueError):
        validate_trace_line(json.dumps(_record(op="append")))


def test_sink_streams_filtered_kinds_and_detaches():
    bus = TelemetryBus()
    buf = io.StringIO()
    ev = RequestCompleted(t=1.0, source="s0", app_id="a", op="read",
                          nbytes=1024, io_class="persistent",
                          latency=0.01, weight=1.0)
    with JsonLinesTraceSink(bus, buf, kinds=[REQUEST_COMPLETED]) as sink:
        bus.publish(ev)
        assert sink.records == 1
    bus.publish(ev)  # after close: detached, not recorded
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1
    assert validate_trace_line(lines[0])["nbytes"] == 1024


def test_sink_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown event kinds"):
        JsonLinesTraceSink(TelemetryBus(), io.StringIO(), kinds=["nope"])


def test_run_single_job_exports_schema_valid_trace(tmp_path):
    """End to end, the way README's snippet runs it: a coordinated
    SFQ(D2) scenario file traced to disk produces a schema-valid
    JSON-lines file covering the whole event vocabulary this run can
    emit."""
    ctrl = DepthController.symmetric(0.05)
    scenario_path = tmp_path / "teragen.json"
    scenario_path.write_text(single_app(
        TINY, PolicySpec.sfqd2(ctrl, coordinated=True), "teragen",
        name="traced", max_cores=96,
    ).to_json())
    path = tmp_path / "trace.jsonl"
    manifest = run_scenario(load_scenario(scenario_path), trace_path=path)
    assert manifest.rows[0]["finish"] is not None
    lines = path.read_text().splitlines()
    n = validate_trace_file(lines)
    assert n == len(lines) > 0
    kinds = {json.loads(line)["kind"] for line in lines}
    # The big three are always present; the coordinated SFQ(D2) run also
    # exercises the controller and the broker.
    assert {"request_submitted", "request_dispatched",
            "request_completed", "depth_changed", "broker_sync"} <= kinds


def _sample(cls):
    """One instance of an event class, every field set by its type."""
    by_type = {"float": 1.5, "int": 2, "str": "x", "bool": True}
    enums = {"op": "read", "io_class": "persistent", "state": "completed"}
    return cls(**{
        f.name: enums.get(f.name, by_type[f.type])
        for f in dataclasses.fields(cls)
    })


@pytest.mark.parametrize("cls", EVENT_TYPES, ids=lambda cls: cls.kind)
def test_every_event_class_exports_a_valid_record(cls):
    validate_trace_record(event_record(_sample(cls)))


def test_fault_event_records_validate():
    for kind, extra in (
        ("fault_injected", {"fault": "node_crash", "target": "dn01",
                            "duration": 2.0}),
        ("node_down", {"permanent": False}),
        ("node_up", {}),
        ("replica_failover", {"app_id": "app01", "block_id": 7,
                              "failed": "dn01", "attempt": 2}),
        ("task_retry", {"task": "map3", "node": "dn01", "attempt": 1}),
        ("broker_outage", {"down": True}),
    ):
        validate_trace_record({"kind": kind, "t": 1.0, "source": "x", **extra})


@pytest.mark.parametrize("rec", [
    {"kind": "node_down", "t": 1.0, "source": "x", "permanent": 1},
    {"kind": "broker_outage", "t": 1.0, "source": "x", "down": "yes"},
    {"kind": "replica_failover", "t": 1.0, "source": "x", "app_id": "a",
     "block_id": 1.5, "failed": "dn01", "attempt": 1},
])
def test_fault_records_with_wrong_types_rejected(rec):
    with pytest.raises(ValueError):
        validate_trace_record(rec)
