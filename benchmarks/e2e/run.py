"""End-to-end scenario benchmark: host cost of four real scenarios, with a
traced per-layer split.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--runs 5] [--out FILE]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --smoke [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every run is a fresh child process (``child.py``) with an empty
``REPRO_CACHE_DIR``; one child runs at a time.  The first form runs
``--runs`` untraced children plus one traced child per workload, prints
every end-to-end and per-layer metric with its unit, and writes the
report to ``--out``.  The second form measures one workload for
``--seconds`` seconds and prints one JSON result line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` is the first form at 1/256 scale with one run.
``--compare`` gives each (workload, metric) pair of two reports a
verdict: better, worse, unchanged or unresolved.

Metric names, units, directions and bounds live in ``BENCHMARK.json``;
``pins.json`` holds each workload's expected ``metrics_hash`` and
``sim_time`` at the default seed.  A run that raises, exceeds 120 s, or
misses its pins counts as failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "e2e"

DEFAULT_SEED = 20160531
SMOKE_SCALE = 1.0 / 256.0
CHILD_TIMEOUT_S = 120.0
#: set-up is sampled at least this many times per time-boxed run
SETUP_SAMPLES = 5
#: a time-boxed run starts no child after this many seconds, so it
#: always ends inside the 180 s a run may take
HARD_LIMIT_S = 170.0

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")

#: unit of every metric the benchmark emits, by exact name then suffix
_UNITS = {
    "peak_rss_mb": "MB", "failed_runs": "fraction",
    "simcore.us_per_event": "us",
    "storage.reschedules_per_request": "ratio", "trace.overhead": "ratio",
}
_SUFFIX_UNITS = (("_s", "s"), (".share", "fraction"))


def unit_of(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


# --------------------------------------------------------------- children
def run_child(workload: str, seed: int, *, trace: bool = False,
              setup_only: bool = False, scale: float | None = None,
              timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One child process with a fresh cache dir; its report, or
    ``{"error": ...}``.  ``elapsed_s`` is the duration seen from here,
    process start-up included."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"),
           str(HERE / "workloads" / f"{workload}.json"), "--seed", str(seed)]
    if scale is not None:
        cmd += ["--scale", repr(scale)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=WORK) as cache:
        env = dict(os.environ, REPRO_CACHE_DIR=cache, TMPDIR=cache)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            out = {"error": f"timed out after {timeout:.0f} s"}
        else:
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                out = {"error": f"exit {proc.returncode}: {tail[0]}"}
            else:
                out = json.loads(proc.stdout.splitlines()[-1])
    out["elapsed_s"] = time.perf_counter() - t0
    return out


class Checker:
    """Decides whether a run's outputs are correct.

    At the pinned seed and scale a run must reproduce the pinned
    ``metrics_hash`` and ``sim_time``; otherwise every run of one
    invocation (traced ones included) must agree with the first.  Every
    run must finish its ``until`` entries.
    """

    def __init__(self, workload: str, seed: int, scale: float | None):
        pin = _load(HERE / "pins.json")[workload]
        self.reference = (
            (pin["metrics_hash"], pin["sim_time"])
            if seed == pin["seed"] and scale is None else None)
        self.failures: list[str] = []

    def __call__(self, result: dict) -> bool:
        why = result.get("error")
        if why is None and "metrics_hash" in result:
            got = (result["metrics_hash"], result["sim_time"])
            if self.reference is None:
                self.reference = got
            if result["unfinished"]:
                why = f"unfinished entries {result['unfinished']}"
            elif got != self.reference:
                why = f"(metrics_hash, sim_time) {got} != {self.reference}"
        if why is not None:
            self.failures.append(why)
            print(f"run failed: {why}", file=sys.stderr)
        return why is None


# ------------------------------------------------------------- statistics
def describe(values: list[float]) -> dict:
    """n, median and quartiles (as ``statistics.quantiles`` gives them)."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "values": list(values)}


def per_layer(traced: dict, untraced_wall: float, runs: list[dict]) -> dict:
    """The traced run's layer split plus set-up and tracing cost."""
    out = dict(traced["layers"])
    for key in ("import_s", "calibrate_s"):
        out[f"setup.{key}"] = statistics.median(
            r[key] for r in runs if key in r)
    out["trace.overhead"] = traced["wall_s"] / untraced_wall
    return out


# ------------------------------------------------------------ full report
def summarise(check: Checker, results: list[dict], traced: dict) -> dict:
    """One workload's report from its untraced runs and its traced run."""
    runs = len(results)
    ok = [r for r in results if check(r)]
    traced_ok = check(traced)
    report = {
        "end_to_end": {},
        "per_layer": {},
        "metrics_hash": ok[0]["metrics_hash"] if ok else None,
        "traced_metrics_hash": traced.get("metrics_hash"),
        "sim_time": ok[0]["sim_time"] if ok else None,
        "failures": check.failures,
    }
    if ok:
        for name in END_TO_END:
            report["end_to_end"][name] = {
                "unit": unit_of(name), **describe([r[name] for r in ok])}
    failed = len(check.failures) / (runs + 1)
    report["end_to_end"]["failed_runs"] = {
        "unit": "fraction", "n": runs + 1, "median": failed, "q1": failed,
        "q3": failed, "values": [failed]}
    if ok and traced_ok:
        wall = report["end_to_end"]["wall_s"]["median"]
        report["per_layer"] = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in per_layer(traced, wall, ok + [traced]).items()}
    return report


def full(args, workloads: list[str]) -> int:
    scale = SMOKE_SCALE if args.smoke else None
    runs = 1 if args.smoke else args.runs
    report = {
        "seed": args.seed,
        "runs": runs,
        "scale": "smoke (1/256)" if args.smoke else "as committed",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    # Round-robin over the workloads, so a burst of load from elsewhere
    # on the machine lands on one run of several workloads instead of
    # on every run of one.
    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for _ in range(runs):
        for name in workloads:
            results[name].append(run_child(name, args.seed, scale=scale))
    for name in workloads:
        traced = run_child(name, args.seed, trace=True, scale=scale)
        result = summarise(Checker(name, args.seed, scale), results[name],
                           traced)
        report["workloads"][name] = result
        print(f"== {name} (metrics_hash {result['metrics_hash']})")
        for metric, stats in result["end_to_end"].items():
            print(f"  {metric:<34} {stats['median']:>14.6g} {stats['unit']:<8}"
                  f" n={stats['n']} q1={stats['q1']:.6g} q3={stats['q3']:.6g}")
        for metric, stats in result["per_layer"].items():
            print(f"  {metric:<34} {stats['value']:>14.6g} {stats['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    failed = any(w["failures"] or not w["per_layer"]
                 for w in report["workloads"].values())
    return 1 if failed else 0


# -------------------------------------------------------- time-boxed run
def timeboxed(args) -> int:
    """Measure one workload for ``--seconds``; print one result line."""
    bench = _load(ROOT / "BENCHMARK.json")
    names = [m["name"] for m in
             bench["per_layer" if args.trace else "end_to_end"]]
    start = time.perf_counter()
    check = Checker(args.workload, args.seed, None)
    children: list[dict] = []

    def spawn(**kwargs) -> dict:
        left = HARD_LIMIT_S - (time.perf_counter() - start)
        result = run_child(args.workload, args.seed,
                           timeout=max(1.0, min(CHILD_TIMEOUT_S, left)),
                           **kwargs)
        result["ok"] = check(result)
        children.append(result)
        return result

    traced = spawn(trace=True) if args.trace else None
    # Start another run only while one as long as the longest so far
    # still ends inside the measured window.
    runs = [spawn()]
    while True:
        elapsed = time.perf_counter() - start
        longest = max(r["elapsed_s"] for r in runs)
        if elapsed + longest > min(args.seconds, HARD_LIMIT_S):
            break
        runs.append(spawn())
    # Every child samples set-up; top up with set-up-only children.
    while (not args.trace
           and sum("setup_s" in c for c in children) < SETUP_SAMPLES
           and time.perf_counter() - start < HARD_LIMIT_S):
        spawn(setup_only=True)
    ok_runs = [r for r in runs if r["ok"]]
    traced_ok = traced is None or traced["ok"]
    metrics = {}
    if ok_runs and traced_ok:
        values = {name: statistics.median(r[name] for r in ok_runs)
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(
            c["setup_s"] for c in children if "setup_s" in c)
        if traced is not None:
            values.update(per_layer(traced, values["wall_s"], children))
        metrics = {name: {"value": values[name], "unit": unit_of(name)}
                   for name in names}
    failed = len(check.failures)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(children),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------- compare
def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> str:
    """Better, worse, unchanged or unresolved for B against A."""
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (b["median"] - a["median"])  # > 0: B is worse
    if bound == 0:  # failed_runs: any change counts
        return "worse" if worse_by > 0 else "better" if worse_by < 0 else "unchanged"
    va, vb = [sign * v for v in a["values"]], [sign * v for v in b["values"]]
    b_dominates, a_dominates = max(vb) < min(va), max(va) < min(vb)
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if spread > bound and not (a_dominates or b_dominates):
        return "unresolved"
    if worse_by > bound * abs(a["median"]):
        return "worse"
    # A gain needs B to win nine tenths of all run pairs and the medians
    # to differ by more than A's own quartile spread.
    wins = sum(y < x for x in va for y in vb)
    if -worse_by > a["q3"] - a["q1"] and wins >= 0.9 * len(va) * len(vb):
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    bench = _load(ROOT / "BENCHMARK.json")
    rules = {m["name"]: (m["bound"], m["better"] == "lower")
             for m in bench["end_to_end"]}
    rules["failed_runs"] = (0.0, True)
    a, b = _load(Path(path_a)), _load(Path(path_b))
    print(f"{'workload':<20} {'metric':<12} {'n':>5} {'A median [q1, q3]':>30}"
          f" {'B median [q1, q3]':>30} {'B/A':>7}  verdict")
    any_worse = False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            print(f"{workload:<20} missing from {path_b}")
            continue
        ea = a["workloads"][workload]["end_to_end"]
        eb = b["workloads"][workload]["end_to_end"]
        for metric, (bound, lower) in rules.items():
            if metric not in ea or metric not in eb:
                continue
            sa, sb = ea[metric], eb[metric]
            result = verdict(sa, sb, bound, lower)
            any_worse |= result == "worse"
            ratio = (f"{sb['median'] / sa['median']:.3f}" if sa["median"]
                     else "-")
            print(f"{workload:<20} {metric:<12} {sa['n']:>2}/{sb['n']:<2}"
                  f" {_fmt(sa):>30} {_fmt(sb):>30} {ratio:>7}  {result}")
    return 1 if any_worse else 0


def _fmt(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


# ------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end scenario benchmark (see README.md).")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-boxed mode: measure --workload this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    known = [w["name"] for w in _load(ROOT / "BENCHMARK.json")["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; have {known}")
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return timeboxed(args)
    return full(args, [args.workload] if args.workload else known)


if __name__ == "__main__":
    sys.exit(main())
