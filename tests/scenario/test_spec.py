"""Scenario spec: canonical JSON round-trips and stable content hashes."""

import json

import pytest

from repro.config import GB, default_cluster
from repro.core import DepthController, NodePolicy, PolicySpec, canonical_json
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
    with pytest.raises(ValueError, match=r"unknown Scenario fields: \['surprise'\]"):
        Scenario.from_dict(d)


@pytest.mark.parametrize("path, key, owner", [
    (("cluster", "storage"), "peak_rat", "StorageProfile"),
    (("cluster", "yarn"), "heartbeat", "YarnConfig"),
    (("policy", "persistent"), "dept", "PolicySpec"),
    (("policy", "persistent", "controller"), "gian", "DepthController"),
])
def test_nested_unknown_field_names_the_key(path, key, owner):
    d = _scenario(PolicySpec.sfqd2(DepthController.symmetric(0.05))).to_dict()
    node = d
    for part in path:
        node = node[part]
    node[key] = 1.0
    with pytest.raises(ValueError, match=rf"unknown {owner} fields: \['{key}'\]"):
        load_scenario(d)


@pytest.mark.parametrize("options, message", [
    ({"depth_sorce": "dn01:persistent"},
     r"unknown measure options \['depth_sorce'\]"),
    ({"depth_source": 1}, "depth_source must be a scheduler name string"),
], ids=["unknown-key", "non-string-source"])
def test_measure_options_are_checked(options, message):
    d = _scenario().to_dict()
    d["measure"]["options"] = options
    with pytest.raises(ValueError, match=message):
        load_scenario(d)
    assert MeasurementSpec(options={"depth_source": "dn01:persistent"})


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


@pytest.mark.parametrize("data, message", [
    ({"app": "terasort", "params": {"input_path": "/in", "input_byte": 5}},
     r"unknown terasort params \['input_byte'\]"),
    ({"app": "hive", "params": {"query": "q21", "qurey": 1}},
     r"unknown hive params \['qurey'\]"),
    ({"app": "hive", "params": {"query": "q7"}}, "unknown query 'q7'"),
    ({"app": "swim", "params": {"n_jobs": 5, "rng": 1}},
     r"unknown swim params \['rng'\]"),
    ({"app": "terasort"}, r"terasort needs params \['input_path'\]"),
])
def test_entry_params_must_fit_the_builder(data, message):
    with pytest.raises(ValueError, match=message):
        JobEntry.from_dict(data)


def test_entry_params_accept_every_builder_keyword():
    JobEntry(app="terasort", params={"input_path": "/in", "input_bytes": 5,
                                     "n_reduces": 2, "name": "ts"})
    JobEntry(app="hive", params={"query": "q9", "tables_path": "/t"})
    JobEntry(app="swim", params={"n_jobs": 5, "mean_interarrival": 2.0})


def test_duplicate_job_keys_rejected():
    with pytest.raises(ValueError):
        WorkloadSpec(jobs=(JobEntry(app="teragen"), JobEntry(app="teragen")))


def test_examples_parse_and_hash(example_scenarios):
    for path in example_scenarios:
        s = load_scenario(path)
        assert len(s.content_hash()) == 16
        assert s.workload.jobs
