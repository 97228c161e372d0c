"""Ablation (§9): the isolation-vs-utilization spectrum of schedulers.

The discussion section argues IBIS exposes a trade-off dial: native
(work-conserving, no control) → SFQ(D2) (work-conserving, controlled) →
a non-work-conserving reservation scheduler (strict isolation, storage
underutilized).  This bench measures all three points on the WC+TG
scenario."""

from repro.config import GB, MB, default_cluster
from repro.core import PolicySpec
from repro.cluster import BigDataCluster
from repro.experiments import ExperimentResult, controller_for
from repro.workloads import teragen, wordcount


def run_ablation():
    config = default_cluster()
    result = ExperimentResult("ablation_reservation")

    def wc_run(policy):
        cluster = BigDataCluster(config, policy)
        cluster.preload_input("/in/wiki", 50 * GB)
        wc = cluster.submit(wordcount(config, "/in/wiki"),
                            io_weight=32.0, max_cores=48)
        cluster.submit(teragen(config), io_weight=1.0, max_cores=48)
        cluster.run(wc.done)
        return wc, cluster.windowed_throughput(0.0, wc.finish_time) / MB

    alone_cluster = BigDataCluster(config, PolicySpec.native())
    alone_cluster.preload_input("/in/wiki", 50 * GB)
    alone = alone_cluster.submit(wordcount(config, "/in/wiki"),
                                 io_weight=1.0, max_cores=48)
    alone_cluster.run()
    standalone = alone.runtime

    wc, thr_native = wc_run(PolicySpec.native())
    result.row(case="native", slowdown=wc.runtime / standalone - 1.0,
               throughput_mbs=thr_native)
    wc, thr = wc_run(PolicySpec.sfqd2(controller_for(config)))
    result.row(case="sfq(d2)", slowdown=wc.runtime / standalone - 1.0,
               throughput_mbs=thr)
    # Built from a PolicySpec like every other case, so the
    # reservation scheduler sits on each node's I/O paths.
    wc, thr = wc_run(PolicySpec(kind="reservation", params={
        "reservations": {"wordcount": 0.6, "teragen": 0.3},
        "nominal_rate": config.storage.peak_rate,
    }))
    result.row(case="reservation", slowdown=wc.runtime / standalone - 1.0,
               throughput_mbs=thr)
    return result


def test_ablation_reservation(benchmark, report):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report(result)

    native = result.find(case="native")
    dyn = result.find(case="sfq(d2)")
    resv = result.find(case="reservation")

    # Isolation ordering: reservation <= sfq(d2) << native.
    assert resv["slowdown"] < native["slowdown"]
    assert dyn["slowdown"] < native["slowdown"]
    assert resv["slowdown"] <= dyn["slowdown"] + 0.05
    # Utilization cost of non-work-conservation: reservation throughput
    # is clearly below both work-conserving schedulers (§9).
    assert resv["throughput_mbs"] < 0.8 * native["throughput_mbs"]
    assert dyn["throughput_mbs"] > 0.85 * native["throughput_mbs"]
