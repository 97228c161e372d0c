"""Command-line experiment runner.

Regenerate any figure or table of the paper from the shell::

    python -m repro.experiments.run fig6
    python -m repro.experiments.run fig10 fig11
    python -m repro.experiments.run all
    python -m repro.experiments.run all --jobs 4      # parallel fan-out
    python -m repro.experiments.run fig11 --jobs 0    # one worker per core
    python -m repro.experiments.run --list
    python -m repro.experiments.run fig6 --scale 128  # 1/128 volumes
    python -m repro.experiments.run fig3 --storage ssd  # fig8 is always SSD
    python -m repro.experiments.run all --out results/
    python -m repro.experiments.run fig6 --profile    # cProfile + hotspots

Or run any declarative scenario file (see ``examples/scenarios/``)::

    python -m repro.experiments.run scenario examples/scenarios/fig6_isolation.json
    python -m repro.experiments.run scenario s.json --sweep cluster.seed=1,2,3
    python -m repro.experiments.run scenario s.json \\
        --sweep workload.jobs.0.io_weight=1,8,32 --jobs 4 --out results/

``--sweep key.path=v1,v2,...`` (repeatable) expands the file into a
cartesian grid of validated scenario variants; the grid rides the same
worker pool as the figures.  ``--scale/--storage/--seed`` do not apply
in scenario mode — a scenario file pins its whole cluster config.
Scenario runs route through the execution core's persistent result
store (``$REPRO_CACHE_DIR``): re-running a file or an interrupted sweep
re-simulates only the cells without a stored manifest (``--no-store``
opts out).

Or start the long-running scenario service and submit from a client::

    python -m repro.experiments.run serve --address tcp://127.0.0.1:8642 --jobs 4 \\
        --max-queue 64 --retries 2 --timeout 300 --store-max-bytes 500000000

    # elsewhere:
    from repro.service import ServiceClient
    with ServiceClient("tcp://127.0.0.1:8642") as client:
        sub = client.submit("examples/scenarios/latency_breakdown.json")
        manifest = client.result(sub)

The service journals every acknowledged sub-id to an fsynced
write-ahead log (``--journal``; default under ``$REPRO_CACHE_DIR``), so
a killed scheduler restarted over the same journal finishes its queued
work, still answers every old sub-id, and never reuses one.  Trim the
persistent result store from the shell::

    python -m repro.experiments.run store stats
    python -m repro.experiments.run store gc --max-bytes 100000000
    python -m repro.experiments.run store gc --max-entries 500 --dry-run

Parallelism (``--jobs N``; 0 = all cores):

* several experiments requested — whole experiments fan out across the
  worker pool (each worker runs its figure's cluster runs serially);
* a single experiment requested — the figure's independent per-policy /
  per-weight cluster runs fan out instead (see figures.py).

Either way results are merged in deterministic order, so the output is
identical to ``--jobs 1`` (the wall-clock line reports per-experiment
worker time; the figure content is byte-identical).
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import re
import sys
import time

from repro.config import HDD_PROFILE, SSD_PROFILE, default_cluster
from repro.execution import (
    ExecutionCore,
    ResultStore,
    default_jobs,
    parallel_jobs,
    run_specs,
)
from repro.experiments import figures
from repro.experiments.harness import controller_for
from repro.experiments.report import (
    format_manifest,
    format_result,
    result_payload,
)
from repro.scenario import parse_sweep, run_scenario, sweep_scenarios

#: short name -> (function, description)
EXPERIMENTS = {
    "fig2": (figures.fig2_io_profiles, "I/O profiles of TeraSort & WordCount"),
    "fig3": (figures.fig3_contention, "WC contention on native Hadoop"),
    "fig6": (figures.fig6_isolation_hdd, "isolation: native vs SFQ(D) vs SFQ(D2)"),
    "fig7": (figures.fig7_depth_adaptation, "SFQ(D2) depth adaptation trace"),
    "fig8": (figures.fig8_isolation_ssd, "isolation on the SSD setup"),
    "fig9": (figures.fig9_facebook, "Facebook2009 runtime CDFs"),
    "fig10": (figures.fig10_multiframework, "TPC-H vs TeraSort: cgroups vs IBIS"),
    "fig11": (figures.fig11_proportional_slowdown, "proportional slowdown"),
    "fig12": (figures.fig12_coordination, "broker coordination on/off"),
    "fig13": (figures.fig13_overhead, "IBIS overhead"),
    "mixed": (figures.mixed_policy_ablation,
              "per-class NodePolicy ablation (which point needs IBIS?)"),
    "faults": (figures.faults_experiment,
               "proportional sharing under injected faults"),
    "tab2": (figures.tab2_resource_usage, "daemon resource usage"),
    "tab3": (figures.tab3_loc, "component development cost"),
}


def _timed_experiment(name: str, config) -> tuple:
    """Run one experiment; returns (result, worker wall seconds)."""
    fn, _desc = EXPERIMENTS[name]
    t0 = time.time()
    result = fn(config)
    return result, time.time() - t0


def _emit(name: str, result, elapsed: float,
          out_dir: pathlib.Path | None) -> None:
    text = format_result(result)
    print(text)
    print(f"({name} regenerated in {elapsed:.1f}s wall)\n")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")
        (out_dir / f"{name}.json").write_text(result_payload(result) + "\n")


def _slug(name: str) -> str:
    """Scenario name -> safe output-file stem."""
    return re.sub(r"[^\w.+-]+", "_", name).strip("_")


def _write_profile(profiler, name: str,
                   out_dir: pathlib.Path | None) -> None:
    """Dump cProfile stats next to the run's outputs.

    Writes ``<name>.prof`` (binary, for snakeviz/pstats) and
    ``<name>.hotspots.txt`` (top-20 by internal and by cumulative time)
    into ``out_dir`` — or the working directory when no ``--out`` was
    given.
    """
    import io
    import pstats

    dest = out_dir if out_dir is not None else pathlib.Path.cwd()
    dest.mkdir(parents=True, exist_ok=True)
    prof_path = dest / f"{name}.prof"
    profiler.dump_stats(prof_path)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("tottime").print_stats(20)
    stats.sort_stats("cumulative").print_stats(20)
    (dest / f"{name}.hotspots.txt").write_text(buf.getvalue())
    print(f"(profile: {prof_path} + {name}.hotspots.txt)\n")


def _result_store(args) -> ResultStore | None:
    """The persistent manifest store the CLI routes through — disabled
    by ``--no-store``."""
    if getattr(args, "no_store", False):
        return None
    return ResultStore.default()


def run_scenarios(args, parser) -> int:
    """``run scenario <file.json>...`` — run declarative scenario files,
    each optionally expanded into a ``--sweep`` grid, through the
    execution core (repeated cells are result-store cache hits, so an
    interrupted grid resumes with only its missing cells)."""
    if not args.names:
        parser.error("scenario mode needs at least one JSON file")
    try:
        sweeps = [parse_sweep(s) for s in args.sweep]
    except ValueError as exc:
        parser.error(str(exc))

    scenarios = []
    for path in args.names:
        try:
            data = json.loads(pathlib.Path(path).read_text())
            scenarios.extend(sweep_scenarios(data, sweeps))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            parser.error(f"{path}: {exc}")

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    core = ExecutionCore(store=_result_store(args))
    if args.profile:
        # Profiling is per-process (and a cache hit would profile
        # nothing): the grid runs serially, one profiler per cell,
        # bypassing the store.
        import cProfile

        manifests = []
        with parallel_jobs(1):
            for scenario in scenarios:
                profiler = cProfile.Profile()
                profiler.enable()
                manifest = run_scenario(scenario)
                profiler.disable()
                manifests.append(manifest)
                _write_profile(profiler, _slug(scenario.name), args.out)
    else:
        with parallel_jobs(jobs):
            manifests = core.run(scenarios)
    for manifest in manifests:
        print(format_manifest(manifest))
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            out = args.out / f"{_slug(manifest.scenario)}.json"
            out.write_text(manifest.to_json() + "\n")
    if core.store is not None:
        print(f"(result store: {core.cache_hits} hit(s), "
              f"{core.executed} run(s); {core.store.root})")
    return 0


def _journal_for(args):
    """The submission journal ``serve`` runs over: ``auto`` (default)
    puts it under the shared cache root, ``off`` keeps it in memory
    only, anything else is a path."""
    from repro.service import SubmissionJournal

    if args.journal == "off":
        return SubmissionJournal()
    if args.journal == "auto":
        return SubmissionJournal.default()
    return SubmissionJournal(args.journal)


def run_serve(args, parser) -> int:
    """``run serve`` — the long-running scenario service: an async
    scheduler accepting submissions over ``--address``, running them on
    warm workers, journaling every acknowledged sub-id so a restart
    recovers queued work and keeps old ids resolvable."""
    from repro.service import SchedulerService

    journal = _journal_for(args)
    service = SchedulerService(
        store=_result_store(args),
        jobs=args.jobs,
        journal=journal,
        retries=args.retries,
        timeout=args.timeout if args.timeout > 0 else None,
        max_queue=args.max_queue,
        store_max_bytes=args.store_max_bytes,
    )
    try:
        service.start(args.address)
        print(f"scenario service listening on {service.address} "
              f"(jobs={args.jobs}, "
              f"store={'off' if service.store is None else service.store.root}, "
              f"journal={journal.path or 'off'}, "
              f"max_queue={args.max_queue or 'unbounded'}, "
              f"retries={args.retries}, "
              f"timeout={args.timeout or 'none'})",
              flush=True)
        if service.stats["recovered"]:
            print(f"(journal replay: {service.stats['recovered']} "
                  f"submission(s) recovered)", flush=True)
        service.join()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.stop()
    return 0


def run_store(args, parser) -> int:
    """``run store gc`` — trim the persistent result store to a byte
    and/or entry budget, least-recently-used first (reads refresh an
    entry's age); ``run store stats`` reports its size."""
    from repro.execution import ResultStore

    if len(args.names) != 1 or args.names[0] not in ("gc", "stats"):
        parser.error("store mode: use 'store gc [--max-bytes N] "
                     "[--max-entries N] [--dry-run]' or 'store stats'")
    store = ResultStore.default()
    if args.names[0] == "stats":
        entries = store.entries()
        print(f"result store {store.root}: {len(entries)} entries, "
              f"{sum(s for _, _, s in entries)} bytes")
        return 0
    if args.max_bytes is None and args.max_entries is None:
        parser.error("store gc needs --max-bytes and/or --max-entries")
    report = store.evict(max_bytes=args.max_bytes,
                         max_entries=args.max_entries,
                         dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"result store {store.root}: {verb} {len(report.removed)} "
          f"entries ({report.freed_bytes} bytes); keeping "
          f"{report.kept_entries} entries ({report.kept_bytes} bytes)")
    for content_hash in report.removed:
        print(f"  - run-{content_hash}.json")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run",
        description="Regenerate figures/tables of the IBIS paper (§7).",
    )
    parser.add_argument("names", nargs="*",
                        help="experiment names (e.g. fig6 tab3), 'all', "
                             "'scenario FILE.json...' to run scenario files, "
                             "'serve' to start the scenario service, or "
                             "'store gc|stats' to manage the result store")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="PATH=V1,V2,...",
                        help="scenario mode only: sweep a dotted key path "
                             "over values (repeatable; combines as a grid)")
    parser.add_argument("--scale", type=float, default=64.0, metavar="N",
                        help="run at 1/N of the paper's data volumes (default 64)")
    parser.add_argument("--storage", choices=("hdd", "ssd"), default="hdd",
                        help="storage profile of every figure but fig8, "
                             "which always runs on the SSD (default hdd)")
    parser.add_argument("--seed", type=int, default=20160531)
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the parallel fan-out "
                             "(default 1 = serial, 0 = one per core); output "
                             "is deterministic regardless of N")
    parser.add_argument("--out", type=pathlib.Path, default=None, metavar="DIR",
                        help="also write each result as DIR/<name>.{txt,json}")
    parser.add_argument("--no-store", action="store_true",
                        help="scenario/serve modes: bypass the persistent "
                             "result store (every cell re-simulates)")
    parser.add_argument("--address", default="tcp://127.0.0.1:8642",
                        metavar="URL",
                        help="serve mode: tcp://host:port to listen on "
                             "(port 0 picks a free one; default "
                             "%(default)s)")
    parser.add_argument("--journal", default="auto", metavar="PATH",
                        help="serve mode: submission journal path — 'auto' "
                             "(default, $REPRO_CACHE_DIR/service/"
                             "journal.jsonl), 'off', or a file path; a "
                             "restarted scheduler replays it and finishes "
                             "incomplete submissions")
    parser.add_argument("--max-queue", type=int, default=0, metavar="N",
                        help="serve mode: bounded admission — reject "
                             "submits with a structured 'busy' reply once "
                             "N submissions are queued (0 = unbounded)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="serve mode: retries after an infrastructure "
                             "failure (worker crash/timeout) before a "
                             "submission is quarantined (default 2)")
    parser.add_argument("--timeout", type=float, default=0.0, metavar="S",
                        help="serve mode: per-batch execution timeout in "
                             "seconds; an overrunning worker is replaced "
                             "and its submissions retried (0 = no timeout)")
    parser.add_argument("--store-max-bytes", type=int, default=0,
                        metavar="N",
                        help="serve mode: evict least-recently-used store "
                             "entries once the store exceeds N bytes "
                             "(0 = no budget)")
    parser.add_argument("--max-bytes", type=int, default=None, metavar="N",
                        help="store gc: byte budget to trim the store to")
    parser.add_argument("--max-entries", type=int, default=None, metavar="N",
                        help="store gc: entry-count budget")
    parser.add_argument("--dry-run", action="store_true",
                        help="store gc: report what would be evicted "
                             "without deleting")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment under cProfile; writes "
                             "<name>.prof and a top-20 <name>.hotspots.txt "
                             "next to the results (forces --jobs 1)")
    args = parser.parse_args(argv)
    if args.profile:
        args.jobs = 1

    if args.list or not args.names:
        for name, (_fn, desc) in EXPERIMENTS.items():
            print(f"{name:<6} {desc}")
        return 0

    if args.names and args.names[0] == "scenario":
        args.names = args.names[1:]
        return run_scenarios(args, parser)
    if args.names and args.names[0] == "serve":
        if args.names[1:]:
            parser.error("serve mode takes no experiment names "
                         "(submit scenarios through the client)")
        return run_serve(args, parser)
    if args.names and args.names[0] == "store":
        args.names = args.names[1:]
        return run_store(args, parser)
    if args.sweep:
        parser.error("--sweep only applies to scenario mode "
                     "(run scenario FILE.json --sweep ...)")

    names = list(EXPERIMENTS) if args.names == ["all"] else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}; "
                     f"use --list to see choices")
    jobs = args.jobs if args.jobs > 0 else default_jobs()

    storage = SSD_PROFILE if args.storage == "ssd" else HDD_PROFILE
    config = default_cluster(scale=1.0 / args.scale, storage=storage,
                             seed=args.seed)
    if jobs > 1:
        # Calibrate once in the parent: forked workers inherit the
        # in-process memo instead of redoing the profiling pass.
        controller_for(config)

    if jobs > 1 and len(names) > 1:
        # Fan out across experiments: one task per figure/table.
        with parallel_jobs(jobs):
            outcomes = run_specs(
                functools.partial(_timed_experiment, config=config), names)
        for name, (result, elapsed) in zip(names, outcomes):
            _emit(name, result, elapsed, args.out)
    elif args.profile:
        import cProfile

        with parallel_jobs(1):
            for name in names:
                profiler = cProfile.Profile()
                profiler.enable()
                result, elapsed = _timed_experiment(name, config)
                profiler.disable()
                _emit(name, result, elapsed, args.out)
                _write_profile(profiler, name, args.out)
    else:
        # Serial experiment loop; with jobs > 1 the independent cluster
        # runs *inside* each figure fan out over the shared pool.
        with parallel_jobs(jobs):
            for name in names:
                result, elapsed = _timed_experiment(name, config)
                _emit(name, result, elapsed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
