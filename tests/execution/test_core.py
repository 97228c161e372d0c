"""ExecutionCore: memoization, sweep resume, determinism."""

import pytest

import repro.execution.core as core_mod
from repro.execution import ExecutionCore, ResultStore, parallel_jobs
from repro.scenario import run_scenario, sweep_scenarios


@pytest.fixture
def counted_runs(monkeypatch):
    """Count every actual simulation the core dispatches (a cache hit
    must execute zero simulator events, i.e. never reach the runner)."""
    calls = []

    def counting(scenario, **kwargs):
        calls.append(scenario.name)
        return run_scenario(scenario, **kwargs)

    monkeypatch.setattr(core_mod, "run_scenario", counting)
    return calls


# ------------------------------------------------------------- memoization
def test_second_submission_hits_store_with_zero_runs(
    tmp_path, tiny_scenario, counted_runs
):
    core = ExecutionCore(store=ResultStore(tmp_path / "results"))
    first = core.submit(tiny_scenario())
    assert counted_runs == ["tiny"]
    second = core.submit(tiny_scenario())
    # Byte-identical manifest, and the simulator never ran again.
    assert second.to_json() == first.to_json()
    assert counted_runs == ["tiny"]
    assert core.cache_hits == 1 and core.executed == 1


def test_within_batch_dedup(tmp_path, tiny_scenario, counted_runs):
    core = ExecutionCore(store=ResultStore(tmp_path))
    manifests = core.run([tiny_scenario(), tiny_scenario(), tiny_scenario()])
    assert counted_runs == ["tiny"]
    assert manifests[0].to_json() == manifests[1].to_json()
    assert manifests[1] is manifests[2]  # alias of the first execution


def test_no_store_always_executes(tiny_scenario, counted_runs):
    core = ExecutionCore()
    core.run([tiny_scenario(), tiny_scenario()])
    assert counted_runs == ["tiny", "tiny"]
    assert core.cache_hits == 0 and core.executed == 2


def test_interrupted_sweep_resumes_missing_cells_only(
    tmp_path, tiny_scenario, counted_runs
):
    """The resumability contract: a grid that died mid-way re-runs only
    the cells with no stored manifest."""
    base = tiny_scenario().to_dict()
    grid = sweep_scenarios(base, [("cluster.seed", [1, 2, 3, 4])])
    store = ResultStore(tmp_path / "results")

    # "Interrupted" run: only the first two cells completed.
    ExecutionCore(store=store).run(grid[:2])
    assert len(counted_runs) == 2

    # Resume over the full grid: exactly the two missing cells execute.
    core = ExecutionCore(store=store)
    manifests = core.run(grid)
    assert len(counted_runs) == 4
    assert core.cache_hits == 2 and core.executed == 2
    hashes = [m.scenario_hash for m in manifests]
    assert hashes == [s.content_hash() for s in grid]


def test_store_results_identical_to_fresh_run(tmp_path, tiny_scenario):
    """A cache hit reproduces the manifest a fresh simulation produces
    (everything but wall time, which metrics_hash excludes)."""
    cached = ExecutionCore(store=ResultStore(tmp_path)).submit(tiny_scenario())
    fresh = run_scenario(tiny_scenario())
    assert cached.metrics_hash() == fresh.metrics_hash()
    assert cached.rows == fresh.rows


# ----------------------------------------------------------- pool parity
def test_parallel_run_byte_identical_to_serial(tiny_scenario):
    scenarios = [tiny_scenario(seed=s) for s in (1, 2, 3, 4)]
    serial = [m.metrics_hash() for m in ExecutionCore().run(scenarios)]
    with parallel_jobs(2):
        parallel = [m.metrics_hash() for m in ExecutionCore().run(scenarios)]
    assert parallel == serial


def test_store_populated_through_the_pool(tmp_path, tiny_scenario):
    store = ResultStore(tmp_path / "results")
    scenarios = [tiny_scenario(seed=s) for s in (1, 2, 3)]
    with parallel_jobs(2):
        ExecutionCore(store=store).run(scenarios)
    assert len(store) == 3
    # A second parallel pass is all hits.
    core = ExecutionCore(store=store)
    with parallel_jobs(2):
        core.run(scenarios)
    assert core.cache_hits == 3 and core.executed == 0
