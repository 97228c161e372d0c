"""Self-test of the end-to-end benchmark; run with ``pytest benchmarks/e2e``.

One ``run.py --smoke`` (all four workloads at 1/256 scale, one untraced
and one traced run each) backs three checks: every metric named in
``BENCHMARK.json`` is emitted with its unit, the traced run reproduces
the untraced ``metrics_hash``, and the report round-trips through JSON
and through ``--compare``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = _run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


def test_every_metric_is_emitted_with_its_unit(smoke):
    out, stdout = smoke
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for name, workload in report["workloads"].items():
        assert workload["failures"] == [], name
        emitted = {**workload["end_to_end"], **workload["per_layer"]}
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            assert emitted[metric["name"]]["unit"] == metric["unit"], (
                name, metric["name"])
            assert f"  {metric['name']} " in stdout
        assert workload["end_to_end"]["failed_runs"]["median"] == 0


def test_traced_run_reproduces_the_untraced_hash(smoke):
    report = json.loads(smoke[0].read_text())
    for name, workload in report["workloads"].items():
        assert workload["metrics_hash"] is not None, name
        assert workload["traced_metrics_hash"] == workload["metrics_hash"]


def test_report_round_trips(smoke):
    out, _ = smoke
    text = out.read_text()
    assert json.dumps(json.loads(text), indent=1) + "\n" == text
    proc = _run("--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == len(BENCH["workloads"]) * (len(BENCH["end_to_end"]) + 1)
    assert all(row.endswith("unchanged") for row in rows), proc.stdout
