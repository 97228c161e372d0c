"""Tests for the experiment harness and report formatting."""

import pathlib

import pytest

from repro.config import default_cluster
from repro.experiments import ExperimentResult, controller_for, format_result
from repro.experiments.report import format_rows


def test_result_rows_and_find():
    r = ExperimentResult("t")
    r.row(case="a", value=1)
    r.row(case="b", value=2)
    assert r.find(case="b")["value"] == 2
    with pytest.raises(KeyError):
        r.find(case="zzz")


def test_find_keyerror_lists_available_values():
    r = ExperimentResult("t")
    r.row(case="native", runtime=1.0)
    r.row(case="ibis", runtime=2.0)
    with pytest.raises(KeyError) as exc:
        r.find(case="ibs")
    message = str(exc.value)
    assert "native" in message and "ibis" in message
    assert "2 rows" in message


def test_find_keyerror_on_unknown_key_lists_row_keys():
    r = ExperimentResult("t")
    r.row(case="a", runtime=1.0)
    with pytest.raises(KeyError) as exc:
        r.find(speed=3)
    message = str(exc.value)
    assert "row keys" in message and "runtime" in message


def test_cache_dir_honours_repro_cache_dir(monkeypatch, tmp_path):
    from repro.execution import cache_dir

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "new"))
    assert cache_dir() == tmp_path / "new"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert cache_dir() == pathlib.Path.home() / ".cache" / "ibis-repro"


def test_controller_cache_reuses_calibration():
    cfg = default_cluster()
    assert controller_for(cfg) is controller_for(cfg)
    # Scale and seed are not calibration inputs: same memo entry.
    assert controller_for(default_cluster(scale=1 / 2048, seed=7)) is \
        controller_for(cfg)


def test_calibration_is_memoised_in_memory_only(isolated_cache, monkeypatch):
    from repro.core.profiling import calibrate_controller
    from repro.experiments import harness

    monkeypatch.setattr(harness, "_CONTROLLERS", {})
    cfg = default_cluster(scale=1.0 / 2048.0)
    ctrl = controller_for(cfg)
    assert ctrl == calibrate_controller(cfg)
    assert controller_for(cfg) is ctrl
    assert list(isolated_cache.iterdir()) == []  # nothing written to disk


def test_format_rows_aligns_mixed_columns():
    text = format_rows([{"a": 1, "b": 2.5}, {"a": 10, "c": None}])
    lines = text.splitlines()
    assert lines[0].split() == ["a", "b", "c"]
    assert "10" in lines[3] if len(lines) > 3 else True
    assert format_rows([]) == "(no rows)"


def test_format_result_includes_series_and_notes():
    r = ExperimentResult("t")
    r.row(x=1)
    r.series["s"] = ([0.0, 1.0], [5.0, 7.0])
    r.notes.append("hello")
    text = format_result(r)
    assert "== t ==" in text
    assert "series s: 2 points" in text
    assert "note: hello" in text


def test_every_name_in_the_package_all_imports():
    import repro.experiments as package

    namespace: dict = {}
    exec("from repro.experiments import *", namespace)
    assert package.__all__
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)
