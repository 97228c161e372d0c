"""Scenario runs never import numpy, nor the figure code or the pool.

Their random streams, the SWIM trace's exponential and lognormal draws
included, their latency summary, their per-second rate series and the
figures' means and percentiles are pure Python (see
``repro.simcore.rng``, ``repro.dataplane.spans`` and
``repro.simcore.instrument``); no module under ``src/`` imports numpy.
``repro.experiments`` re-exports only the harness and report names, so
importing it to run one scenario loads neither
``repro.experiments.figures`` nor ``repro.execution`` and its process
pool.  Each check runs in a fresh process, so an import made by another
test cannot hide one.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
WORKLOADS = ROOT / "benchmarks" / "e2e" / "workloads"

#: ``isolation_hdd`` at 1/256 scale, seed 20160531, as the numpy-backed
#: streams and summary produced it: placement and task-jitter draws
#: plus the latency percentiles.
PINNED_HASH = "26549c27b7d33840"

#: ``facebook_trace`` at 1/256 scale, seed 20160531, with the SWIM trace
#: sampled from numpy's ``Generator``: its exponential arrivals and
#: lognormal input sizes.
FACEBOOK_PINNED_HASH = "6e3f3ef2f5e79d21"

#: Fig. 2's TeraSort profile (``device_series``) at 1/256 scale, as the
#: numpy-backed rate series and bucket sums produced it.
DEVICE_SERIES_PINNED_HASH = "f57f55a691574f57"

#: What a scenario run must leave unimported.
HEAVY_MODULES = ("numpy", "repro.experiments.figures", "repro.execution",
                 "concurrent.futures", "multiprocessing")

SCRIPT = """
import json, sys
from repro.scenario import load_scenario, run_scenario
data = json.loads(open(sys.argv[1]).read())
data["cluster"]["scale"] = 1 / 256
print(run_scenario(load_scenario(data)).metrics_hash())
"""

NO_NUMPY = "import sys; sys.modules['numpy'] = None  # import numpy fails\n"


def _python(script: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_isolation_hdd_reproduces_its_pinned_hash():
    assert _python(NO_NUMPY + SCRIPT, str(WORKLOADS / "isolation_hdd.json")) == [
        PINNED_HASH]


def test_facebook_trace_reproduces_its_pinned_hash():
    assert _python(NO_NUMPY + SCRIPT, str(WORKLOADS / "facebook_trace.json")) == [
        FACEBOOK_PINNED_HASH]


def test_device_series_reproduces_its_pinned_hash():
    script = NO_NUMPY + """
from repro.config import GB, default_cluster
from repro.core import PolicySpec
from repro.scenario import run_scenario, single_app
scenario = single_app(
    default_cluster(scale=1 / 256), PolicySpec.native(), "terasort",
    name="fig2:terasort",
    params={"input_path": "/in/tera", "input_bytes": 100 * GB},
    preloads=(("/in/tera", 100 * GB),),
    metrics=("runtime", "device_series"), window="min_finish",
)
print(run_scenario(scenario).metrics_hash())
"""
    assert _python(script) == [DEVICE_SERIES_PINNED_HASH]


def test_loading_a_scenario_leaves_numpy_unimported():
    """What the benchmark's child process imports and loads, for each
    of its workloads."""
    script = f"""
import sys
import repro.experiments.harness, repro.scenario
repro.scenario.load_scenario(sys.argv[1])
print(*[m for m in {HEAVY_MODULES!r} if m in sys.modules] or ["none"])
"""
    for workload in ("isolation_hdd", "faults_coordinated", "facebook_trace",
                     "tpch_terasort"):
        assert _python(script, str(WORKLOADS / f"{workload}.json")) == [
            "none"], workload
