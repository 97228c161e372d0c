"""``--profile``: cProfile dumps next to the results, in both CLI modes."""

import pathlib
import pstats

from repro.execution import ResultStore
from repro.experiments.run import main

EXAMPLES = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "scenarios"
)


def _assert_profiled(out_dir: pathlib.Path, name: str) -> None:
    prof = out_dir / f"{name}.prof"
    assert pstats.Stats(str(prof)).total_calls > 0
    hotspots = (out_dir / f"{name}.hotspots.txt").read_text()
    assert "tottime" in hotspots and "cumulative" in hotspots


def test_experiment_mode_profile_writes_dumps(capsys, tmp_path):
    assert main(["fig13", "--scale", "2048", "--profile",
                 "--out", str(tmp_path)]) == 0
    assert f"(profile: {tmp_path / 'fig13.prof'}" in capsys.readouterr().out
    _assert_profiled(tmp_path, "fig13")
    assert (tmp_path / "fig13.json").is_file()


def test_scenario_mode_profile_runs_outside_the_store(capsys, tmp_path):
    path = EXAMPLES / "fig6_isolation.json"
    assert main(["scenario", str(path), "--profile",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    _assert_profiled(tmp_path, "fig6_isolation")
    assert (tmp_path / "fig6_isolation.json").is_file()
    # The profiled cell ran, but not through the store: nothing was
    # stored, and no store line claims the run did not happen.
    assert len(ResultStore.default()) == 0
    assert "0 run(s)" not in out and "result store:" not in out
