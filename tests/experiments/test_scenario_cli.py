"""The ``run scenario`` CLI mode and its ``--sweep`` grids."""

import json
import pathlib

import pytest

from repro.experiments.run import main

EXAMPLES = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "scenarios"
)


def test_scenario_mode_runs_example(capsys, tmp_path):
    path = EXAMPLES / "fig6_isolation.json"
    assert main(["scenario", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "== scenario fig6_isolation ==" in out
    assert "scenario_hash" in out and "metrics_hash" in out
    manifest = json.loads((tmp_path / "fig6_isolation.json").read_text())
    assert manifest["scenario_hash"] and manifest["metrics_hash"]
    assert manifest["rows"]


def test_scenario_sweep_expands_grid(capsys):
    path = EXAMPLES / "fig6_isolation.json"
    assert main(["scenario", str(path),
                 "--sweep", "workload.jobs.0.io_weight=8,32"]) == 0
    out = capsys.readouterr().out
    assert "fig6_isolation[workload.jobs.0.io_weight=8]" in out
    assert "fig6_isolation[workload.jobs.0.io_weight=32]" in out


def test_scenario_rerun_is_served_from_the_store(capsys):
    path = EXAMPLES / "fig6_isolation.json"
    assert main(["scenario", str(path)]) == 0
    first = capsys.readouterr().out
    assert "0 hit(s), 1 run(s)" in first
    assert main(["scenario", str(path)]) == 0
    second = capsys.readouterr().out
    assert "1 hit(s), 0 run(s)" in second
    # The cached rerun reports identical metrics.
    metrics = [ln for ln in first.splitlines() if "metrics_hash" in ln]
    assert metrics and metrics == [
        ln for ln in second.splitlines() if "metrics_hash" in ln
    ]


def test_scenario_no_store_flag_always_runs(capsys):
    path = EXAMPLES / "fig6_isolation.json"
    for _ in range(2):
        assert main(["scenario", str(path), "--no-store"]) == 0
        assert "result store" not in capsys.readouterr().out


def test_scenario_mode_names_a_nested_typo(capsys, tmp_path):
    data = json.loads((EXAMPLES / "fig6_isolation.json").read_text())
    data["cluster"]["yarn"]["heartbeat"] = 1.0
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["scenario", str(path)])
    assert exc.value.code == 2
    assert "unknown YarnConfig fields: ['heartbeat']" in capsys.readouterr().err


def test_scenario_mode_names_an_unknown_measure_option(capsys, tmp_path):
    data = json.loads((EXAMPLES / "fig6_isolation.json").read_text())
    data["measure"]["options"] = {"depth_sorce": "dn01:persistent"}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["scenario", str(path)])
    assert exc.value.code == 2
    assert "unknown measure options ['depth_sorce']" in capsys.readouterr().err


def test_scenario_mode_names_a_bad_cluster_value(capsys, tmp_path):
    data = json.loads((EXAMPLES / "fig6_isolation.json").read_text())
    data["cluster"]["read_window"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["scenario", str(path)])
    assert exc.value.code == 2
    assert "read_window must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["cluster"].update(seed=-3),
     "seed must be a non-negative int, got -3"),
    (lambda d: d["workload"]["jobs"][0]["params"].update(input_byte=5),
     "unknown wordcount params ['input_byte']"),
])
def test_scenario_mode_rejects_a_bad_value_before_running(capsys, tmp_path,
                                                           edit, message):
    data = json.loads((EXAMPLES / "fig6_isolation.json").read_text())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["scenario", str(path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_serve_mode_rejects_experiment_names():
    with pytest.raises(SystemExit):
        main(["serve", "fig6"])


def test_scenario_mode_needs_a_file():
    with pytest.raises(SystemExit):
        main(["scenario"])


def test_scenario_mode_rejects_missing_file(tmp_path):
    with pytest.raises(SystemExit):
        main(["scenario", str(tmp_path / "nope.json")])


def test_scenario_mode_rejects_bad_sweep():
    path = EXAMPLES / "fig6_isolation.json"
    with pytest.raises(SystemExit):
        main(["scenario", str(path), "--sweep", "notasweep"])


def test_sweep_outside_scenario_mode_errors():
    with pytest.raises(SystemExit):
        main(["fig6", "--sweep", "cluster.seed=1,2"])
