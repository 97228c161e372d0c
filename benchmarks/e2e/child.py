"""One benchmark run in a fresh process: set up, run one scenario, report.

Usage::

    python benchmarks/e2e/child.py SCENARIO.json [--seed N] [--scale S]
                                   [--trace] [--setup-only]

Prints one JSON object on its last stdout line.  ``run.py`` starts one
of these per run, with an empty ``REPRO_CACHE_DIR`` so every run pays
the cold §4 calibration.

Set-up (``setup_s``) is measured from this script's start to the loaded
scenario: ``import repro`` plus ``load_scenario`` (which calibrates the
``"controller": "auto"`` policies).  The run (``wall_s``/``cpu_s``) is
the ``run_scenario`` call: materialise, preload, simulate and collect.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def _rescaled(data: dict, scale: float) -> dict:
    """The scenario at another data scale.  Fault times were planned
    in proportion to the scale (see ``figures._faults_plan``), so they
    move with it and still land mid-run."""
    factor = scale / data["cluster"]["scale"]
    data["cluster"]["scale"] = scale
    for ev in data.get("faults", {}).get("events", ()):
        ev["at"] *= factor
        ev["duration"] *= factor
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", type=pathlib.Path)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro.experiments.harness as harness
    from repro.scenario import load_scenario, run_scenario
    import_s = time.perf_counter() - t0

    calibrate_s = 0.0
    calibrate = harness.calibrate_controller

    def timed_calibrate(*a, **kw):
        nonlocal calibrate_s
        t = time.perf_counter()
        try:
            return calibrate(*a, **kw)
        finally:
            calibrate_s += time.perf_counter() - t

    harness.calibrate_controller = timed_calibrate

    data = json.loads(args.scenario.read_text())
    if args.seed is not None:
        data["cluster"]["seed"] = args.seed
    if args.scale is not None:
        data = _rescaled(data, args.scale)
    scenario = load_scenario(data)
    out = {
        "setup_s": time.perf_counter() - T_START,
        "import_s": import_s,
        "calibrate_s": calibrate_s,
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from layers import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        manifest = run_scenario(scenario)
        wall_s = time.perf_counter() - w0
        # The run must end with its `until` entries (all, if none named)
        # finished.
        until = set(scenario.measure.until) or {
            e.key for e in scenario.workload.jobs}
        out.update({
            "wall_s": wall_s,
            "cpu_s": time.process_time() - c0,
            "metrics_hash": manifest.metrics_hash(),
            "sim_time": manifest.sim_time,
            "unfinished": sorted({
                row["entry"] for row in manifest.rows
                if row["entry"] in until and row["finish"] is None
            }),
        })
        if tracer is not None:
            out["layers"] = tracer.metrics(wall_s)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
