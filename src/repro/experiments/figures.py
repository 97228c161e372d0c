"""One function per figure/table of the paper's evaluation (§7).

All experiments run at ``scale`` (default 1/64 of the paper's data
volumes) on the simulated 8-worker testbed; paper-vs-measured notes for
each are kept in EXPERIMENTS.md.

Structure: every figure is now declarative — each independent cluster
run is a :class:`~repro.scenario.Scenario` (topology + policy +
workload + faults + measurement as one canonical-JSON value), built
here or taken from :mod:`repro.scenario.library`, and executed through
the repo-wide execution core
(:class:`~repro.execution.core.ExecutionCore`).  With an active worker
pool the variants of one figure run concurrently; manifests are merged
in submission order, so the assembled :class:`ExperimentResult` is
identical to a serial run (see :mod:`repro.execution.pool`'s
determinism guarantee).  The figure functions only *shape* manifest
rows; any scenario can equally be serialised to JSON and re-run via
``python -m repro.experiments.run scenario <file.json>``.
"""

from __future__ import annotations

import pathlib

from repro.config import (
    GB,
    MB,
    SSD_PROFILE,
    TB,
    ClusterConfig,
    default_cluster,
)
from repro.core import NodePolicy, PolicySpec
from repro.core.metrics import relative_performance, slowdown
from repro.dataplane.spans import mean, percentile
from repro.execution import ExecutionCore
from repro.experiments.harness import ExperimentResult, controller_for
from repro.faults import FaultEvent, FaultPlan
from repro.hive import TPCH_QUERIES
from repro.scenario import (
    JobEntry,
    MeasurementSpec,
    PreloadSpec,
    Scenario,
    WorkloadSpec,
    single_app,
    wc_alone,
    wc_teragen_isolation,
    weighted_scan_pair,
)

__all__ = [
    "fig2_io_profiles",
    "fig3_contention",
    "fig6_isolation_hdd",
    "fig7_depth_adaptation",
    "fig8_isolation_ssd",
    "fig9_facebook",
    "fig10_multiframework",
    "fig11_proportional_slowdown",
    "fig12_coordination",
    "fig13_overhead",
    "faults_experiment",
    "mixed_policy_ablation",
    "tab2_resource_usage",
    "tab3_loc",
]

#: interferer sizes for the contention studies: the paper runs TeraSort
#: with 50–400 GB inputs; the large end keeps the aggressor I/O-active
#: for the victim's whole run at simulation scale.
_BIG_SORT = 400 * GB

#: cgroups throttle cap (Fig. 10): the paper throttles TeraSort to
#: 1 MB/s per container; one node runs ~12 containers and spill writes
#: land in the page cache before the block layer sees them, so the
#: effective per-node cap on scheduled intermediate I/O is far higher.
_THROTTLE_BPS = 48.0 * MB


# The figures' shared core: no persistent store — a figure always
# re-simulates, so golden outputs never depend on cache state.
_CORE = ExecutionCore()


def _run_all(scenarios: list[Scenario]) -> list:
    """Fan the scenarios out through the execution core, manifests in
    submission order."""
    return _CORE.run(scenarios)


# --------------------------------------------------------------------- Fig 2
def _fig2_scenario(config: ClusterConfig, app: str) -> Scenario:
    """One app running alone with the full cluster, profiled per second."""
    if app == "terasort":
        params = {"input_path": "/in/tera", "input_bytes": 100 * GB}
        preloads = (("/in/tera", 100 * GB),)
    else:
        params = {"input_path": "/in/wiki"}
        preloads = (("/in/wiki", 50 * GB),)
    return single_app(
        config, PolicySpec.native(), app,
        name=f"fig2:{app}", params=params, preloads=preloads,
        metrics=("runtime", "device_series"), window="min_finish",
    )


def fig2_io_profiles(config: ClusterConfig | None = None) -> ExperimentResult:
    """I/O demand (read/write MB/s vs time) of TeraSort and WordCount,
    each running alone with the full cluster."""
    config = config or default_cluster()
    result = ExperimentResult("fig2_io_profiles")
    apps = ("terasort", "wordcount")
    runs = _run_all([_fig2_scenario(config, app) for app in apps])
    for label, man in zip(apps, runs):
        for op in ("read", "write"):
            result.series[f"{label}:{op}"] = man.series[op]
        result.row(app=label, runtime=man.runtime(label),
                   peak_read=float(max(result.series[f"{label}:read"][1])),
                   peak_write=float(max(result.series[f"{label}:write"][1])))
    return result


# --------------------------------------------------------------------- Fig 3
def _fig3_scenario(config: ClusterConfig, interferer: str | None) -> Scenario:
    """WC (CPU fixed at half the cluster) vs one interferer."""
    preloads = [PreloadSpec("/in/wiki", 50 * GB)]
    jobs = [JobEntry(app="wordcount", io_weight=1.0, max_cores=48,
                     params={"input_path": "/in/wiki"})]
    if interferer == "teravalidate":
        preloads.append(PreloadSpec("/in/sorted", _BIG_SORT))
        jobs.append(JobEntry(app="teravalidate", io_weight=1.0, max_cores=48,
                             params={"input_path": "/in/sorted"}))
    elif interferer == "teragen":
        jobs.append(JobEntry(app="teragen", io_weight=1.0, max_cores=48))
    elif interferer == "terasort":
        preloads.append(PreloadSpec("/in/tera", _BIG_SORT))
        jobs.append(JobEntry(app="terasort", io_weight=1.0, max_cores=48,
                             params={"input_path": "/in/tera",
                                     "input_bytes": _BIG_SORT}))
    return Scenario(
        name=f"fig3:wc+{interferer or 'alone'}",
        cluster=config,
        policy=PolicySpec.native(),
        workload=WorkloadSpec(jobs=tuple(jobs), preloads=tuple(preloads)),
        measure=MeasurementSpec(until=("wordcount",)),
    )


def fig3_contention(config: ClusterConfig | None = None) -> ExperimentResult:
    """WordCount runtime alone vs against TeraValidate/TeraGen/TeraSort
    on native Hadoop, with WC's CPU allocation fixed at half the cluster."""
    config = config or default_cluster()
    result = ExperimentResult(f"fig3_contention_{config.storage.name}")
    interferers: list[str | None] = [None, "teravalidate", "teragen", "terasort"]
    runs = _run_all([_fig3_scenario(config, who) for who in interferers])
    standalone = runs[0].runtime("wordcount")
    result.row(case="wc_alone", runtime=standalone, slowdown=0.0)
    for who, man in zip(interferers[1:], runs[1:]):
        rt = man.runtime("wordcount")
        result.row(case=f"wc+{who}", runtime=rt,
                   slowdown=slowdown(rt, standalone))
    return result


# --------------------------------------------------------------------- Fig 6
def fig6_isolation_hdd(config: ClusterConfig | None = None) -> ExperimentResult:
    """Fig. 6a/6b: WC+TG under native, SFQ(D=12/8/4/2), and SFQ(D2),
    with the 32:1 sharing ratio favouring WordCount (HDD setup)."""
    config = config or default_cluster()
    result = ExperimentResult("fig6_isolation_hdd")

    cases = [("native", PolicySpec.native())]
    cases += [(f"sfq(d={d})", PolicySpec.sfqd(depth=d)) for d in (12, 8, 4, 2)]
    cases.append(("sfq(d2)", PolicySpec.sfqd2(controller_for(config))))

    scenarios = [wc_alone(config, name="fig6:wc_alone")]
    scenarios += [
        wc_teragen_isolation(config, policy, name=f"fig6:{label}")
        for label, policy in cases
    ]
    runs = _run_all(scenarios)

    standalone = runs[0].runtime("wordcount")
    result.row(case="wc_alone", runtime=standalone, slowdown=0.0,
               throughput_mbs=None, throughput_loss=None)
    native_thr = runs[1].summary["throughput_mbs"]
    for (label, _policy), man in zip(cases, runs[1:]):
        runtime = man.runtime("wordcount")
        thr = man.summary["throughput_mbs"]
        result.row(case=label, runtime=runtime,
                   slowdown=slowdown(runtime, standalone),
                   throughput_mbs=thr,
                   throughput_loss=thr / native_thr - 1.0)
    return result


# --------------------------------------------------------------------- Fig 7
def fig7_depth_adaptation(config: ClusterConfig | None = None) -> ExperimentResult:
    """The SFQ(D2) controller's D and observed latency over time on one
    datanode during the WC+TG isolation run (flush storms included).

    Observed purely over the cluster's telemetry bus: the scheduler at
    ``dn00:persistent`` publishes one ``depth_changed`` event per control
    period, and the runner's ``depth_trace`` metric reconstructs the
    paper's D and latency traces — no scheduler internals touched.
    """
    config = config or default_cluster()
    result = ExperimentResult("fig7_depth_adaptation")
    ctrl = controller_for(config)
    scenario = wc_teragen_isolation(
        config, PolicySpec.sfqd2(ctrl), name="fig7",
        metrics=("runtime", "depth_trace"),
        options={"depth_source": "dn00:persistent"},
    )
    man = _CORE.submit(scenario)
    d_times, d_vals = man.series["depth"]
    l_times, l_vals = man.series["latency"]
    result.series["depth"] = (list(d_times), list(d_vals))
    result.series["latency_ms"] = (
        list(l_times),
        [v * 1000.0 for v in l_vals],
    )
    result.row(
        samples=len(d_vals),
        d_min=float(min(d_vals)),
        d_max=float(max(d_vals)),
        d_mean=mean(d_vals),
        lref_ms=ctrl.ref_latency_read * 1000.0,
        latency_p95_ms=percentile(l_vals, 95) * 1000.0 if l_vals else None,
    )
    return result


# --------------------------------------------------------------------- Fig 8
def fig8_isolation_ssd(config: ClusterConfig | None = None) -> ExperimentResult:
    """Fig. 8a/8b: the WC+TG isolation study on the SSD storage setup,
    where SFQ(D2) blends split read/write reference latencies.  The
    storage of ``config`` is replaced by :data:`SSD_PROFILE`."""
    config = (config or default_cluster()).with_storage(SSD_PROFILE)
    result = ExperimentResult("fig8_isolation_ssd")
    ctrl = controller_for(config)

    runs = _run_all([
        wc_alone(config, name="fig8:wc_alone"),
        wc_teragen_isolation(config, PolicySpec.native(), name="fig8:native"),
        wc_teragen_isolation(config, PolicySpec.sfqd2(ctrl),
                             name="fig8:sfq(d2)"),
    ])
    standalone = runs[0].runtime("wordcount")
    result.row(case="wc_alone", runtime=standalone, slowdown=0.0,
               throughput_mbs=None)
    for label, man in zip(("native", "sfq(d2)"), runs[1:]):
        runtime = man.runtime("wordcount")
        result.row(case=label, runtime=runtime,
                   slowdown=slowdown(runtime, standalone),
                   throughput_mbs=man.summary["throughput_mbs"])
    result.notes.append(
        f"SSD split references: read {ctrl.ref_latency_read * 1000:.1f} ms, "
        f"write {ctrl.ref_latency_write * 1000:.1f} ms"
    )
    return result


# ------------------------------------------------------- mixed NodePolicy
def mixed_policy_ablation(config: ClusterConfig | None = None) -> ExperimentResult:
    """Which interposition point needs managed I/O?  (NodePolicy ablation.)

    The WC+TG isolation study (Fig. 6's setup, 32:1 in favour of WC)
    with IBIS attached to *subsets* of a node's scheduling points via
    per-class :class:`NodePolicy` — something the paper's architecture
    enables (§3) but its evaluation only exercises uniformly:

    * ``native``            — no management anywhere (the §2.3 baseline);
    * ``ibis-persistent``   — SFQ(D2) on the HDFS path only;
    * ``ibis-intermediate`` — SFQ(D2) on the spill + shuffle paths only;
    * ``ibis-uniform``      — the paper's configuration, all three points.

    WC vs TeraGen contention is dominated by the HDFS disk (TG writes
    replicated output blocks), so managing PERSISTENT alone should
    recover most of the isolation and INTERMEDIATE alone very little.
    """
    config = config or default_cluster()
    result = ExperimentResult("mixed_policy_ablation")
    ctrl = controller_for(config)
    ibis = PolicySpec.sfqd2(ctrl)
    nat = PolicySpec.native()
    cases = [
        ("native", NodePolicy.uniform(nat)),
        ("ibis-persistent",
         NodePolicy(persistent=ibis, intermediate=nat, network=nat)),
        ("ibis-intermediate",
         NodePolicy(persistent=nat, intermediate=ibis, network=ibis)),
        ("ibis-uniform", NodePolicy.uniform(ibis)),
    ]

    scenarios = [wc_alone(config, name="mixed:wc_alone")]
    scenarios += [
        wc_teragen_isolation(config, policy, name=f"mixed:{label}")
        for label, policy in cases
    ]
    runs = _run_all(scenarios)

    standalone = runs[0].runtime("wordcount")
    result.row(case="wc_alone", runtime=standalone, slowdown=0.0,
               throughput_mbs=None, policy=None)
    for (label, policy), man in zip(cases, runs[1:]):
        runtime = man.runtime("wordcount")
        result.row(case=label, runtime=runtime,
                   slowdown=slowdown(runtime, standalone),
                   throughput_mbs=man.summary["throughput_mbs"],
                   policy=policy.to_json())
    return result


# --------------------------------------------------------------------- Fig 9
def _fig9_scenario(config: ClusterConfig, label: str, policy: PolicySpec,
                   with_teragen: bool, n_jobs: int) -> Scenario:
    """One Facebook2009 trace replay, optionally against TeraGen."""
    jobs = [JobEntry(app="swim", name="facebook2009", io_weight=32.0,
                     max_cores=48, params={"n_jobs": n_jobs})]
    if with_teragen:
        jobs.append(JobEntry(app="teragen", io_weight=1.0, max_cores=48,
                             params={"output_bytes": 4 * TB}))
    return Scenario(
        name=f"fig9:{label}",
        cluster=config,
        policy=policy,
        workload=WorkloadSpec(jobs=tuple(jobs)),
        measure=MeasurementSpec(until=("facebook2009",)),
    )


def fig9_facebook(
    config: ClusterConfig | None = None, n_jobs: int = 50
) -> ExperimentResult:
    """Cumulative distribution of Facebook2009 job runtimes: standalone,
    interfered by TeraGen on native, and isolated by SFQ(D2) at 32:1."""
    config = config or default_cluster()
    result = ExperimentResult("fig9_facebook")
    cases = [
        ("standalone", PolicySpec.native(), False),
        ("interfered", PolicySpec.native(), True),
        ("sfq(d2)", PolicySpec.sfqd2(controller_for(config)), True),
    ]
    runs = _run_all([
        _fig9_scenario(config, label, policy, with_tg, n_jobs)
        for label, policy, with_tg in cases
    ])
    for (label, _policy, _with_tg), man in zip(cases, runs):
        runtimes = sorted(
            row["runtime"] for row in man.job_rows("facebook2009")
        )
        cdf_y = [(i + 1) / len(runtimes) for i in range(len(runtimes))]
        result.series[label] = (runtimes, cdf_y)
        result.row(case=label,
                   mean_runtime=mean(runtimes),
                   p50=percentile(runtimes, 50),
                   p90=percentile(runtimes, 90))
    return result


# -------------------------------------------------------------------- Fig 10
def _fig10_ts_solo(config: ClusterConfig) -> Scenario:
    return single_app(
        config, PolicySpec.native(), "terasort", name="fig10:ts_solo",
        params={"input_path": "/in/tera"},
        preloads=(("/in/tera", 100 * GB),), max_cores=96,
    )


def _fig10_query_scenario(
    config: ClusterConfig,
    qname: str,
    policy: PolicySpec,
    io_weight: float = 1.0,
    max_cores: int = 96,
    with_terasort: bool = False,
    name: str = "",
) -> Scenario:
    """A TPC-H query (entry named after the query), alone or contending
    with TeraSort under one policy."""
    query = TPCH_QUERIES[qname](config)
    preloads = [PreloadSpec(query.table_paths[0], query.table_bytes[0])]
    jobs = [JobEntry(app="hive", name=qname, io_weight=io_weight,
                     max_cores=max_cores, params={"query": qname})]
    until = [qname]
    if with_terasort:
        preloads.append(PreloadSpec("/in/tera", 100 * GB))
        jobs.append(JobEntry(app="terasort", io_weight=1.0, max_cores=48,
                             params={"input_path": "/in/tera"}))
        until.append("terasort")
    return Scenario(
        name=name or f"fig10:{qname}_solo",
        cluster=config,
        policy=policy,
        workload=WorkloadSpec(jobs=tuple(jobs), preloads=tuple(preloads)),
        measure=MeasurementSpec(until=tuple(until)),
    )


def fig10_multiframework(config: ClusterConfig | None = None) -> ExperimentResult:
    """TPC-H queries on Hive vs TeraSort on MapReduce under native,
    cgroups (weight 100:1 / throttle), and IBIS 100:1."""
    config = config or default_cluster()
    result = ExperimentResult("fig10_multiframework")
    ctrl = controller_for(config)

    policies = [
        ("native", PolicySpec.native(), 1.0),
        ("cg(weight)-100:1", PolicySpec.cgroups_weight(), 100.0),
        ("cg(throttle)", PolicySpec.cgroups_throttle({"terasort": _THROTTLE_BPS}),
         100.0),
        ("ibis-100:1", PolicySpec.sfqd2(ctrl), 100.0),
    ]
    qnames = ["q21", "q9"]

    scenarios = [_fig10_ts_solo(config)]
    scenarios += [_fig10_query_scenario(config, qname, PolicySpec.native())
                  for qname in qnames]
    scenarios += [
        _fig10_query_scenario(
            config, qname, policy, io_weight=w, max_cores=48,
            with_terasort=True, name=f"fig10:{qname}+{label}",
        )
        for qname in qnames
        for label, policy, w in policies
    ]
    runs = _run_all(scenarios)

    ts_solo = runs[0].runtime("terasort")
    q_solos = {
        qname: man.runtime(qname)
        for qname, man in zip(qnames, runs[1:1 + len(qnames)])
    }
    contend = iter(runs[1 + len(qnames):])
    for qname in qnames:
        solo = q_solos[qname]
        for label, _policy, _w in policies:
            man = next(contend)
            q_rel = relative_performance(man.runtime(qname), solo)
            ts_rel = relative_performance(man.runtime("terasort"), ts_solo)
            result.row(query=qname, case=label,
                       query_rel_perf=q_rel, ts_rel_perf=ts_rel,
                       avg_rel_perf=(q_rel + ts_rel) / 2.0)
    return result


# -------------------------------------------------------------------- Fig 11
def _fig11_solo(config: ClusterConfig, which: str, cores: int = 96) -> Scenario:
    params = ({} if which == "teragen"
              else {"input_path": "/in/tera"})
    short = "tg" if which == "teragen" else "ts"
    return single_app(
        config, PolicySpec.native(), which, name=f"fig11:{short}_solo",
        params=params, preloads=(("/in/tera", 100 * GB),), max_cores=cores,
    )


def _fig11_pair(config: ClusterConfig, policy: PolicySpec, ts_cores: int,
                tg_cores: int, ts_w: float, tg_w: float,
                label: str) -> Scenario:
    """TS + TG sharing the cluster under one CPU/IO split."""
    return Scenario(
        name=f"fig11:{label}",
        cluster=config,
        policy=policy,
        workload=WorkloadSpec(
            jobs=(
                JobEntry(app="terasort", io_weight=ts_w, max_cores=ts_cores,
                         params={"input_path": "/in/tera"}),
                JobEntry(app="teragen", io_weight=tg_w, max_cores=tg_cores),
            ),
            preloads=(PreloadSpec("/in/tera", 100 * GB),),
        ),
    )


def fig11_proportional_slowdown(
    config: ClusterConfig | None = None,
) -> ExperimentResult:
    """Equal slowdown for TeraSort vs TeraGen: CPU-only tuning (Fair
    Scheduler 5:1) vs CPU 2:1 + IBIS I/O 2:1."""
    config = config or default_cluster()
    result = ExperimentResult("fig11_proportional_slowdown")
    ctrl = controller_for(config)

    # The paper's methodology is manual tuning toward equal slowdown; we
    # search the same small knob grids and report the best of each mode.
    fs_grid = [(PolicySpec.native(), ts_cores, 96 - ts_cores, 1.0, 1.0,
                f"fs-{ts_cores}:{96 - ts_cores}")
               for ts_cores in (80, 72, 64, 56)]
    ibis_grid = [(PolicySpec.sfqd2(ctrl), ts_cores, 96 - ts_cores, io_ratio, 1.0,
                  f"fs-{ts_cores}:{96 - ts_cores}+io-{io_ratio:g}:1")
                 for ts_cores in (64, 56, 48)
                 for io_ratio in (2.0, 4.0, 8.0)]

    scenarios = [_fig11_solo(config, "terasort"),
                 _fig11_solo(config, "teragen")]
    scenarios += [
        _fig11_pair(config, policy, tsc, tgc, tsw, tgw, label)
        for policy, tsc, tgc, tsw, tgw, label in fs_grid + ibis_grid
    ]
    runs = _run_all(scenarios)

    ts_solo = runs[0].runtime("terasort")
    tg_solo = runs[1].runtime("teragen")
    pairs = runs[2:]

    def best(grid, manifests):
        candidates = []
        for (_p, _tc, _gc, _tw, _gw, label), man in zip(grid, manifests):
            ts_rt = man.runtime("terasort")
            tg_rt = man.runtime("teragen")
            candidates.append(
                (abs(slowdown(ts_rt, ts_solo) - slowdown(tg_rt, tg_solo)),
                 slowdown(ts_rt, ts_solo), slowdown(tg_rt, tg_solo), label)
            )
        return min(candidates)

    gap, t, g, label = best(fs_grid, pairs[: len(fs_grid)])
    result.row(case=f"cpu only ({label})", ts_slowdown=t, tg_slowdown=g,
               gap=gap, avg=(t + g) / 2)
    gap, t, g, label = best(ibis_grid, pairs[len(fs_grid):])
    result.row(case=f"cpu+ibis ({label})", ts_slowdown=t, tg_slowdown=g,
               gap=gap, avg=(t + g) / 2)
    return result


# -------------------------------------------------------------------- Fig 12
def _fig12_skew_nodes(config: ClusterConfig) -> list[str]:
    return [f"dn{i:02d}" for i in range(config.n_workers // 2)]


def _fig12_scan(name: str, io_weight: float, max_cores: int) -> JobEntry:
    return JobEntry(app="teravalidate", name=name, io_weight=io_weight,
                    max_cores=max_cores,
                    params={"input_path": f"/in/{name[5:]}"})


def _fig12_ratio_scenario(config: ClusterConfig, policy: PolicySpec,
                          label: str, window: float = 8.0) -> Scenario:
    """Skewed + wide scans over a fixed window (service-ratio probe)."""
    return Scenario(
        name=f"fig12:ratio:{label}",
        cluster=config,
        policy=policy,
        workload=WorkloadSpec(
            jobs=(_fig12_scan("scan-hot", 1.0, 48),
                  _fig12_scan("scan-wide", 1.0, 48)),
            preloads=(
                PreloadSpec("/in/hot", 800 * GB,
                            nodes=tuple(_fig12_skew_nodes(config))),
                PreloadSpec("/in/wide", 800 * GB),
            ),
        ),
        measure=MeasurementSpec(horizon=window, metrics=("total_service",)),
    )


def _fig12_solo_scenario(config: ClusterConfig, path: str, skewed: bool,
                         name: str) -> Scenario:
    return Scenario(
        name=f"fig12:{name}_solo",
        cluster=config,
        policy=PolicySpec.native(),
        workload=WorkloadSpec(
            jobs=(JobEntry(app="teravalidate", name=name, max_cores=96,
                           params={"input_path": path}),),
            preloads=(PreloadSpec(
                path, 200 * GB,
                nodes=tuple(_fig12_skew_nodes(config)) if skewed else (),
            ),),
        ),
    )


def _fig12_pair_scenario(config: ClusterConfig, policy: PolicySpec,
                         label: str) -> Scenario:
    """Skewed + wide scans sharing the cluster, both run to completion."""
    return Scenario(
        name=f"fig12:pair:{label}",
        cluster=config,
        policy=policy,
        workload=WorkloadSpec(
            jobs=(_fig12_scan("scan-hot", 1.0, 48),
                  _fig12_scan("scan-wide", 1.0, 48)),
            preloads=(
                PreloadSpec("/in/hot", 200 * GB,
                            nodes=tuple(_fig12_skew_nodes(config))),
                PreloadSpec("/in/wide", 200 * GB),
            ),
        ),
    )


def fig12_coordination(config: ClusterConfig | None = None) -> ExperimentResult:
    """Distributed scheduling coordination on vs off (§5, §7.6).

    The paper's testbed develops uneven per-node service naturally; at
    simulation scale we induce it the way §5 describes it arising —
    skewed data distribution: a scan whose data lives on half the nodes
    shares the cluster with a scan over evenly spread data, at equal
    weights.  Reported: the total-service ratio over a fixed window
    (target 1.0) and each application's slowdown, with coordination
    disabled (No Sync) and enabled (Sync)."""
    config = config or default_cluster()
    result = ExperimentResult("fig12_coordination")
    ctrl = controller_for(config)
    modes = [(False, "no sync"), (True, "sync")]

    scenarios = [
        _fig12_ratio_scenario(
            config, PolicySpec.sfqd2(ctrl, coordinated=coordinated), label
        )
        for coordinated, label in modes
    ]
    scenarios += [
        _fig12_solo_scenario(config, "/in/hot", True, "scan-hot"),
        _fig12_solo_scenario(config, "/in/wide", False, "scan-wide"),
    ]
    scenarios += [
        _fig12_pair_scenario(
            config, PolicySpec.sfqd2(ctrl, coordinated=coordinated), label
        )
        for coordinated, label in modes
    ]
    runs = _run_all(scenarios)

    def windowed_ratio(man) -> float:
        svc = man.summary["total_service"]
        hot = next(v for k, v in svc.items() if "hot" in k)
        wide = next(v for k, v in svc.items() if "wide" in k)
        return wide / hot

    ratios = [windowed_ratio(man) for man in runs[:2]]
    hot_solo = runs[2].runtime("scan-hot")
    wide_solo = runs[3].runtime("scan-wide")
    pairs = runs[4:]
    for (coordinated, label), ratio, man in zip(modes, ratios, pairs):
        result.row(case=label,
                   total_service_ratio=ratio,
                   ratio_error=abs(ratio - 1.0),
                   hot_slowdown=slowdown(man.runtime("scan-hot"), hot_solo),
                   wide_slowdown=slowdown(man.runtime("scan-wide"), wide_solo))
    return result


# -------------------------------------------------------------------- Fig 13
def _single_app_scenario(config: ClusterConfig, app: str,
                         policy: "PolicySpec | NodePolicy", label: str,
                         metrics: tuple[str, ...] = ("runtime",)) -> Scenario:
    """One app alone with the full cluster (Fig. 13, Tab. 2)."""
    preloads = []
    params = {}
    if app == "wordcount":
        preloads.append(("/in/wiki", 50 * GB))
        params["input_path"] = "/in/wiki"
    elif app == "terasort":
        preloads.append(("/in/tera", 100 * GB))
        params["input_path"] = "/in/tera"
    return single_app(
        config, policy, app, name=label, params=params,
        preloads=tuple(preloads), max_cores=96, metrics=metrics,
    )


def fig13_overhead(config: ClusterConfig | None = None) -> ExperimentResult:
    """Per-application overhead of IBIS interposition and scheduling:
    WC/TG/TS each alone with the full cluster, native vs IBIS."""
    config = config or default_cluster()
    result = ExperimentResult("fig13_overhead")
    ctrl = controller_for(config)
    apps = ("wordcount", "teragen", "terasort")

    runs = _run_all([
        _single_app_scenario(config, app, policy, f"fig13:{app}:{label}")
        for app in apps
        for policy, label in ((PolicySpec.native(), "native"),
                              (PolicySpec.sfqd2(ctrl), "ibis"))
    ])
    it = iter(runs)
    for app in apps:
        rt_native = next(it).runtime(app)
        rt_ibis = next(it).runtime(app)
        result.row(app=app, native=rt_native, ibis=rt_ibis,
                   overhead=rt_ibis / rt_native - 1.0)
    return result


# -------------------------------------------------------------------- Tab 2
def tab2_resource_usage(config: ClusterConfig | None = None) -> ExperimentResult:
    """Daemon CPU/memory usage attributable to I/O management.

    The simulation does not execute daemon code on real CPUs, so the
    paper's utilisation numbers are estimated from the measured volume
    of scheduler work: requests queued/dispatched (CPU) and peak queue
    plus broker-table footprints (memory).  Costs per operation follow
    the prototype's ballpark (tens of microseconds per request, ~100
    bytes of queue state per request)."""
    config = config or default_cluster()
    result = ExperimentResult("tab2_resource_usage")
    ctrl = controller_for(config)
    # Native interposition just forwards a request; IBIS additionally
    # tags it, computes SFQ start/finish tags, and maintains the queue.
    cpu_s_per_request = {"native": 8e-6, "ibis": 25e-6}
    bytes_per_queued_request = 120.0   # request object + heap slot

    apps = ("wordcount", "teragen", "terasort")
    policies = [(PolicySpec.native(), "native"),
                (PolicySpec.sfqd2(ctrl, coordinated=True), "ibis")]
    runs = _run_all([
        _single_app_scenario(config, app, policy, f"tab2:{app}:{label}",
                             metrics=("runtime", "scheduler_stats"))
        for app in apps
        for policy, label in policies
    ])
    it = iter(runs)
    for app in apps:
        for _policy, label in policies:
            man = next(it)
            runtime = man.runtime(app)
            requests = man.counters["requests"]
            sched_cpu_s = requests * cpu_s_per_request[label]
            if label == "ibis":
                sched_cpu_s += man.counters["broker_messages"] * 50e-6
            # per-core %, over the run, across the cluster's daemon cores
            cpu_pct = 100.0 * sched_cpu_s / (runtime * config.n_workers)
            mem_bytes = (requests / max(1.0, runtime)
                         * bytes_per_queued_request)
            if label == "ibis":
                mem_bytes += (man.counters["broker_message_bytes"]
                              / max(1.0, runtime))
            result.row(app=app, case=label,
                       cpu_pct=cpu_pct,
                       mem_mb_per_node=mem_bytes / MB,
                       requests=requests)
    return result


# ------------------------------------------------------------------- faults
#: per-scan input volume of the fault-tolerance study (paper-sized;
#: scaled by ``config.scale`` like every other experiment input)
_FAULT_SCAN = 200 * GB


def _faults_plan(config: ClusterConfig) -> FaultPlan:
    """The study's fault schedule, timed relative to a deterministic
    estimate of the run length so it lands mid-run at any ``--scale``:
    a transient datanode crash early, a broker outage through the
    middle, and a fail-slow HDFS disk in the second half."""
    # Two scans reading _FAULT_SCAN each over the cluster's aggregate
    # peak storage bandwidth — a deliberately crude lower bound.
    t_est = 2.0 * config.scaled(_FAULT_SCAN) / (
        config.n_workers * config.storage.peak_rate
    )
    return FaultPlan(
        events=(
            FaultEvent.node_crash(0.2 * t_est, "dn01", duration=0.3 * t_est),
            FaultEvent.broker_outage(0.3 * t_est, duration=0.2 * t_est),
            FaultEvent.slow_disk(
                0.6 * t_est, "dn02", duration=0.3 * t_est, factor=0.25
            ),
        ),
    )


def _faults_scenario(config: ClusterConfig, policy: "PolicySpec | NodePolicy",
                     with_faults: bool, label: str) -> Scenario:
    """Two weighted TeraValidate scans (32:1) under one policy, with or
    without the fault schedule."""
    return weighted_scan_pair(
        config, policy, name=f"faults:{label}", scan_bytes=_FAULT_SCAN,
        hi_weight=32.0, lo_weight=1.0,
        faults=_faults_plan(config) if with_faults else None,
    )


def _faults_outcome(man) -> dict:
    """Realised service ratio over the shared window + fault counters."""
    svc_hi = man.job_row("scan-hi")["service"]
    svc_lo = man.job_row("scan-lo")["service"]
    return {
        "ratio": svc_hi / svc_lo if svc_lo > 0 else float("inf"),
        "hi_runtime": man.runtime("scan-hi"),
        "lo_runtime": man.runtime("scan-lo"),
        "failovers": man.counters["failovers"],
        "retries": man.counters["retries"],
        "orphaned": man.counters["orphaned"],
        "cancelled": man.counters["cancelled"],
    }


def faults_experiment(config: ClusterConfig | None = None) -> ExperimentResult:
    """Proportional sharing under faults: does the 4:1 share survive a
    datanode crash, a broker outage, and a fail-slow disk?

    The paper's evaluation (§7) assumes a healthy cluster; this
    experiment injects the failure modes real YARN clusters exhibit and
    shows IBIS still delivers weight-proportional sharing (all jobs
    finishing, via replica failover and task re-attempts) while the
    native and cgroups baselines never had a share to defend.
    """
    config = config or default_cluster()
    result = ExperimentResult("faults_experiment")
    cases = [
        ("native", PolicySpec.native()),
        ("cgroups", PolicySpec.cgroups_weight()),
        ("ibis", PolicySpec.sfqd2(controller_for(config), coordinated=True)),
    ]
    scenarios = [_faults_scenario(config, cases[-1][1], False, "ibis-healthy")]
    scenarios += [
        _faults_scenario(config, policy, True, label)
        for label, policy in cases
    ]
    runs = _run_all(scenarios)
    healthy = _faults_outcome(runs[0])
    result.row(case="ibis-healthy", faulted=False, ratio=healthy["ratio"],
               ratio_preserved=1.0,
               hi_runtime=healthy["hi_runtime"],
               lo_runtime=healthy["lo_runtime"],
               failovers=healthy["failovers"], retries=healthy["retries"])
    for (label, _policy), man in zip(cases, runs[1:]):
        out = _faults_outcome(man)
        result.row(case=label, faulted=True, ratio=out["ratio"],
                   ratio_preserved=out["ratio"] / healthy["ratio"],
                   hi_runtime=out["hi_runtime"], lo_runtime=out["lo_runtime"],
                   failovers=out["failovers"], retries=out["retries"])
    result.notes.append(
        "io_weight 32:1; 'ratio' is realised service over the window both "
        "scans run (closed-loop scans demand-cap it well below 32 — the "
        "per-policy differentiation, not the nominal weight, is the "
        "signal); 'ratio_preserved' compares against the healthy IBIS run; "
        "faults: dn01 crash (transient), broker outage, dn02 fail-slow "
        "HDFS disk at 25% rate"
    )
    return result


# -------------------------------------------------------------------- Tab 3
def tab3_loc(config: ClusterConfig | None = None) -> ExperimentResult:
    """Development cost (lines of code) per IBIS component — this
    reproduction's equivalent of the paper's Table 3."""
    result = ExperimentResult("tab3_loc")
    root = pathlib.Path(__file__).resolve().parent.parent
    components = {
        "interposition": ["dataplane/tags.py", "dataplane/request.py",
                          "dataplane/lifecycle.py", "dataplane/scope.py",
                          "dataplane/path.py", "core/base.py",
                          "core/interposition.py"],
        "sfq(d) scheduler": ["core/sfq.py"],
        "sfq(d2) scheduler": ["core/sfqd2.py", "core/profiling.py"],
        "scheduling coordination": ["core/broker.py"],
        "cgroups baseline": ["core/cgroups.py"],
    }
    total = 0
    for component, files in components.items():
        loc = 0
        for rel in files:
            text = (root / rel).read_text().splitlines()
            loc += sum(
                1 for line in text
                if line.strip() and not line.strip().startswith("#")
            )
        result.row(component=component, loc=loc)
        total += loc
    result.row(component="total", loc=total)
    return result
