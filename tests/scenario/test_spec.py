"""Scenario spec: canonical JSON round-trips and stable content hashes."""

import json

import pytest

from repro.config import GB, default_cluster
from repro.core import NodePolicy, PolicySpec, canonical_json
from repro.scenario import (
    JobEntry,
    MeasurementSpec,
    PreloadSpec,
    Scenario,
    WorkloadSpec,
    load_scenario,
)


def _config():
    return default_cluster(scale=1.0 / 256)


def _scenario(policy=None):
    return Scenario(
        name="spec-test",
        cluster=_config(),
        policy=policy or PolicySpec.sfqd(depth=4),
        workload=WorkloadSpec(
            jobs=(
                JobEntry(app="wordcount", io_weight=32.0, max_cores=48,
                         params={"input_path": "/in/wiki"}),
                JobEntry(app="teragen", max_cores=48),
            ),
            preloads=(PreloadSpec("/in/wiki", 50 * GB),),
        ),
        measure=MeasurementSpec(until=("wordcount",),
                                metrics=("runtime", "throughput_mbs"),
                                window="until_finish"),
        description="round-trip probe",
    )


def test_round_trip_preserves_canonical_json():
    s = _scenario()
    again = Scenario.from_dict(s.to_dict())
    assert canonical_json(again.to_dict()) == canonical_json(s.to_dict())
    assert again.content_hash() == s.content_hash()


def test_json_round_trip():
    s = _scenario()
    again = Scenario.from_json(s.to_json())
    assert again.content_hash() == s.content_hash()
    assert again.workload.jobs[0].io_weight == 32.0
    assert again.measure.until == ("wordcount",)


def test_content_hash_ignores_key_order():
    d = _scenario().to_dict()
    shuffled = json.loads(
        json.dumps(d, sort_keys=True)
    )
    # Rebuild with reversed insertion order at the top level.
    reordered = {k: shuffled[k] for k in reversed(list(shuffled))}
    assert (Scenario.from_dict(reordered).content_hash()
            == Scenario.from_dict(d).content_hash())


def test_content_hash_sees_every_change():
    base = _scenario().to_dict()
    h0 = Scenario.from_dict(base).content_hash()
    for mutate in (
        lambda d: d.update(name="other"),
        lambda d: d["cluster"].update(seed=7),
        lambda d: d["workload"]["jobs"][0].update(io_weight=1.0),
        lambda d: d["measure"].update(metrics=["runtime"]),
    ):
        d = json.loads(json.dumps(base))
        mutate(d)
        assert Scenario.from_dict(d).content_hash() != h0


def test_node_policy_round_trips():
    policy = NodePolicy(
        persistent=PolicySpec.sfqd(depth=8),
        intermediate=PolicySpec.native(),
        network=PolicySpec.native(),
    )
    s = _scenario(policy=policy)
    again = Scenario.from_json(s.to_json())
    assert isinstance(again.policy, NodePolicy)
    assert again.content_hash() == s.content_hash()


def test_auto_controller_resolves_and_hashes_stably():
    d = _scenario().to_dict()
    d["policy"] = {"kind": "sfqd2", "controller": "auto"}
    s1 = Scenario.from_dict(d)
    # Policies coerce to per-class NodePolicy form, and the emitted dict
    # pins the calibrated controller explicitly...
    emitted = s1.to_dict()["policy"]["persistent"]["controller"]
    assert emitted != "auto" and isinstance(emitted, dict)
    assert emitted["ref_latency_read"] > 0
    # ...and re-parsing either form lands on the same hash.
    assert Scenario.from_dict(s1.to_dict()).content_hash() == s1.content_hash()
    assert Scenario.from_dict(d).content_hash() == s1.content_hash()


def test_load_scenario_from_path(tmp_path):
    s = _scenario()
    path = tmp_path / "s.json"
    path.write_text(s.to_json())
    assert load_scenario(path).content_hash() == s.content_hash()


def test_unknown_fields_rejected():
    d = _scenario().to_dict()
    d["surprise"] = 1
    with pytest.raises((ValueError, TypeError)):
        Scenario.from_dict(d)


def test_until_must_reference_a_job():
    with pytest.raises(KeyError):
        Scenario(
            name="bad",
            cluster=_config(),
            policy=PolicySpec.native(),
            workload=WorkloadSpec(jobs=(JobEntry(app="teragen"),)),
            measure=MeasurementSpec(until=("nope",)),
        )


@pytest.mark.parametrize("text", ["NaN", "Infinity"])
def test_submit_at_must_be_finite(text):
    with pytest.raises(ValueError, match="submit_at"):
        JobEntry.from_dict(json.loads(f'{{"app": "teragen", "submit_at": {text}}}'))


def test_duplicate_job_keys_rejected():
    with pytest.raises(ValueError):
        WorkloadSpec(jobs=(JobEntry(app="teragen"), JobEntry(app="teragen")))


def test_examples_parse_and_hash(example_scenarios):
    for path in example_scenarios:
        s = load_scenario(path)
        assert len(s.content_hash()) == 16
        assert s.workload.jobs
