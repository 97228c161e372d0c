"""Microbenchmark for the simcore event engine's hot path.

Reports simulated events per second for the dominant workload shapes of
the IBIS simulation and (optionally) compares against the committed
baseline in ``BENCH_engine.json`` so CI fails on regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_microbench.py                 # full tier
    PYTHONPATH=src python benchmarks/bench_engine_microbench.py --smoke         # CI-sized
    PYTHONPATH=src python benchmarks/bench_engine_microbench.py --write         # refresh baseline
    PYTHONPATH=src python benchmarks/bench_engine_microbench.py --check         # fail below baseline

Workloads
---------
* ``timeouts``   — N processes each awaiting M sequential timeouts: the
  generator-resume + Timeout path that dominates every simulation run.
  The queue-pop count is analytic (``N * (M + 2)``: one start event, M
  timeouts, one process-completion event per process), so events/sec is
  comparable across engine versions regardless of internal changes.
* ``device``     — closed-loop workers on one HDD device
  (``device_eventloop_requests_per_sec``): the event-driven
  ``repro.storage.device`` submit/complete dispatch.
* ``interrupts`` — processes that are repeatedly interrupted mid-wait:
  the ``_interrupts`` queue path in ``Process._resume``.

Tiers: ``full`` (default) and ``smoke`` (CI-sized) run every workload.
These numbers time engine primitives on their own; scenario wall time
and its per-layer split come from ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

from repro.config import HDD_PROFILE
from repro.simcore import Simulator
from repro.storage import StorageDevice

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: fail --check when a metric drops more than this fraction below baseline
REGRESSION_TOLERANCE = 0.20


# ----------------------------------------------------------------- workloads
def bench_timeouts(n_procs: int, n_timeouts: int) -> float:
    """Events/sec for the sequential-timeout workload (analytic count)."""
    sim = Simulator()

    def proc():
        for _ in range(n_timeouts):
            yield sim.timeout(1.0)

    for _ in range(n_procs):
        sim.process(proc())
    n_events = n_procs * (n_timeouts + 2)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return n_events / elapsed


def bench_device(n_workers: int, n_requests: int) -> float:
    """Requests/sec through the event-driven device dispatch path."""
    sim = Simulator()
    device = StorageDevice(sim, HDD_PROFILE, name="bench")
    chunk = 1 << 20

    def worker():
        for i in range(n_requests):
            yield device.submit("read" if i % 2 else "write", chunk)

    for _ in range(n_workers):
        sim.process(worker())
    total = n_workers * n_requests
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return total / elapsed


def bench_interrupts(n_pairs: int, n_rounds: int) -> float:
    """Interrupt deliveries/sec through the ``_interrupts`` queue path."""
    sim = Simulator()
    from repro.simcore import Interrupt

    def sleeper():
        while True:
            try:
                yield sim.timeout(1e9)
                return
            except Interrupt as intr:
                if intr.cause == "stop":
                    return

    def interrupter(target):
        for i in range(n_rounds):
            yield sim.timeout(1.0)
            target.interrupt(cause="stop" if i == n_rounds - 1 else None)

    for _ in range(n_pairs):
        target = sim.process(sleeper())
        sim.process(interrupter(target))
    total = n_pairs * n_rounds
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return total / elapsed


# ------------------------------------------------------------------- driver
#: workload sizes per tier
TIER_PARAMS = {
    "smoke": dict(timeouts=(200, 50), device=(8, 500), interrupts=(100, 20)),
    "full": dict(timeouts=(1000, 200), device=(8, 5000), interrupts=(500, 100)),
}


def run_suite(tier: str, repeats: int) -> dict[str, float]:
    params = TIER_PARAMS[tier]
    benches = {
        "timeouts_events_per_sec": lambda: bench_timeouts(*params["timeouts"]),
        "device_eventloop_requests_per_sec": lambda: bench_device(*params["device"]),
        "interrupts_per_sec": lambda: bench_interrupts(*params["interrupts"]),
    }
    results: dict[str, float] = {}
    for name, fn in benches.items():
        best = max(fn() for _ in range(repeats))
        results[name] = round(best, 1)
        print(f"{name:<36} {best:>14,.0f}")
    return results


def check_against_baseline(results: dict[str, float], mode: str) -> int:
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --write first",
              file=sys.stderr)
        return 2
    payload = json.loads(BASELINE_PATH.read_text())
    baseline = payload.get(mode)
    if baseline is None:
        print(f"no '{mode}' baseline in {BASELINE_PATH}; "
              f"run with --write first", file=sys.stderr)
        return 2
    tolerance = payload.get("tolerance", REGRESSION_TOLERANCE)
    baseline = baseline["metrics"]
    failed = False
    for name, base in baseline.items():
        got = results.get(name)
        if got is None:
            print(f"MISSING {name}", file=sys.stderr)
            failed = True
            continue
        floor = base * (1.0 - tolerance)
        status = "ok" if got >= floor else "REGRESSION"
        print(f"{name:<36} {got:>14,.0f} vs baseline {base:>14,.0f}  [{status}]")
        if got < floor:
            failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI-sized smoke tier (default: full)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take best-of-N (default 3)")
    parser.add_argument("--write", action="store_true",
                        help="write results to BENCH_engine.json")
    parser.add_argument("--check", action="store_true",
                        help="compare against BENCH_engine.json; exit 1 on "
                             "a regression beyond the tolerance")
    args = parser.parse_args(argv)
    tier = "smoke" if args.smoke else "full"

    results = run_suite(tier, repeats=args.repeats)
    if args.write:
        # Baselines are stored per tier so CI compares like for like;
        # --write refreshes only the tier that was run.
        payload = {"tolerance": REGRESSION_TOLERANCE}
        if BASELINE_PATH.exists():
            payload.update(json.loads(BASELINE_PATH.read_text()))
        payload[tier] = {
            "metrics": results,
            "python": platform.python_version(),
        }
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"{tier} baseline written to {BASELINE_PATH}")
    if args.check:
        return check_against_baseline(results, tier)
    return 0


if __name__ == "__main__":
    sys.exit(main())
