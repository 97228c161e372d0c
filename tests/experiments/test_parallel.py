"""Tests for the parallel fan-out subsystem and the calibration cache."""

import json
import pickle

import pytest

from repro.config import default_cluster
from repro.execution.pool import (
    RunSpec,
    active_jobs,
    execute,
    parallel_jobs,
    run_specs,
)
from repro.experiments import figures
from repro.experiments import harness
from repro.experiments.report import result_payload


def _square(x, offset=0):
    """Module-level on purpose: RunSpec functions are pickled by reference."""
    return x * x + offset


# ---------------------------------------------------------------- RunSpec
def test_runspec_pickle_roundtrip():
    spec = RunSpec.of(_square, 3, offset=1, label="sq")
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert execute(clone) == 10


def test_runspec_kwargs_order_insensitive():
    a = RunSpec.of(_square, 1, offset=2)
    b = RunSpec(fn=_square, args=(1,), kwargs=(("offset", 2),), label="_square")
    assert a == b


def test_run_specs_serial_without_pool():
    assert active_jobs() == 1
    assert run_specs([RunSpec.of(_square, i) for i in range(5)]) == \
        [0, 1, 4, 9, 16]


def test_run_specs_parallel_matches_serial_in_order():
    specs = [RunSpec.of(_square, i, offset=i) for i in range(8)]
    serial = run_specs(specs)
    with parallel_jobs(2):
        assert active_jobs() == 2
        parallel = run_specs(specs)
    assert active_jobs() == 1
    assert parallel == serial


def test_parallel_jobs_nested_keeps_outer_pool():
    with parallel_jobs(2):
        with parallel_jobs(3):  # no-op: outer pool stays active
            assert active_jobs() == 2
    assert active_jobs() == 1


# ------------------------------------------------- figure-level determinism
def test_figure_parallel_output_is_byte_identical():
    """The acceptance property: a figure regenerated through the worker
    pool serializes to exactly the same bytes as a serial run."""
    config = default_cluster(scale=1.0 / 2048.0)
    serial = result_payload(figures.fig13_overhead(config))
    with parallel_jobs(2):
        parallel = result_payload(figures.fig13_overhead(config))
    assert parallel == serial


# ------------------------------------------------------- calibration cache
@pytest.fixture
def calib_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    saved = dict(harness._CONTROLLERS)
    harness._CONTROLLERS.clear()
    yield tmp_path
    harness._CONTROLLERS.clear()
    harness._CONTROLLERS.update(saved)


def test_calibration_cache_writes_and_reads_disk(calib_env, monkeypatch):
    config = default_cluster(scale=1.0 / 2048.0)
    ctrl = harness.controller_for(config)
    cached = list(calib_env.glob("calib-*.json"))
    assert len(cached) == 1
    payload = json.loads(cached[0].read_text())
    assert payload["controller"]["ref_latency_read"] == ctrl.ref_latency_read

    # A fresh process (simulated by clearing the in-memory layer) must
    # load from disk instead of re-profiling.
    harness._CONTROLLERS.clear()

    def boom(*a, **k):  # pragma: no cover - would mean a cache miss
        raise AssertionError("recalibrated despite a warm disk cache")

    monkeypatch.setattr(harness, "calibrate_controller", boom)
    assert harness.controller_for(config) == ctrl


def test_calibration_cache_distinguishes_kwargs(calib_env):
    config = default_cluster(scale=1.0 / 2048.0)
    a = harness.controller_for(config)
    b = harness.controller_for(config, gain=55.0)
    assert b.gain == 55.0 and a.gain != 55.0
    assert len(list(calib_env.glob("calib-*.json"))) == 2


def test_calibration_cache_corrupt_entry_recalibrates(calib_env):
    config = default_cluster(scale=1.0 / 2048.0)
    ctrl = harness.controller_for(config)
    entry = next(calib_env.glob("calib-*.json"))
    entry.write_text("{not json")
    harness._CONTROLLERS.clear()
    assert harness.controller_for(config) == ctrl  # silently re-profiled
