"""Ablation (§4): sensitivity of SFQ(D2) to the controller parameters.

Sweeps the integral gain K and the reference-latency choice (via the
profiling saturation fraction) on the WC+TG isolation scenario.  The
paper's design choices are that a pre-saturation Lref and a healthy
gain hold the isolation/utilization balance; too-large Lref drifts the
scheduler toward native behaviour."""

from repro.config import GB, MB, default_cluster
from repro.core import PolicySpec
from repro.cluster import BigDataCluster
from repro.experiments import ExperimentResult
from repro.core.profiling import calibrate_controller
from repro.workloads import teragen, wordcount


def run_sweep():
    config = default_cluster()
    result = ExperimentResult("ablation_controller")

    def wc_run(policy):
        cluster = BigDataCluster(config, policy)
        cluster.preload_input("/in/wiki", 50 * GB)
        wc = cluster.submit(wordcount(config, "/in/wiki"),
                            io_weight=32.0, max_cores=48)
        cluster.submit(teragen(config), io_weight=1.0, max_cores=48)
        cluster.run(wc.done)
        thr = cluster.windowed_throughput(0.0, wc.finish_time) / MB
        return wc.runtime, thr

    alone_cluster = BigDataCluster(config, PolicySpec.native())
    alone_cluster.preload_input("/in/wiki", 50 * GB)
    alone = alone_cluster.submit(wordcount(config, "/in/wiki"),
                                 io_weight=1.0, max_cores=48)
    alone_cluster.run()
    standalone = alone.runtime

    for gain in (5.0, 30.0, 120.0):
        ctrl = calibrate_controller(config, gain=gain)
        rt, thr = wc_run(PolicySpec.sfqd2(ctrl))
        result.row(knob="gain", value=gain, lref_ms=ctrl.ref_latency_read * 1e3,
                   slowdown=rt / standalone - 1.0, throughput_mbs=thr)
    for sat in (0.5, 0.9, 1.0):
        ctrl = calibrate_controller(config, saturation_fraction=sat)
        rt, thr = wc_run(PolicySpec.sfqd2(ctrl))
        result.row(knob="saturation", value=sat,
                   lref_ms=ctrl.ref_latency_read * 1e3,
                   slowdown=rt / standalone - 1.0, throughput_mbs=thr)
    return result


def test_ablation_controller(benchmark, report):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report(result)

    sats = [r for r in result.rows if r["knob"] == "saturation"]
    # Lref grows with the saturation fraction (deeper operating point).
    lrefs = [r["lref_ms"] for r in sats]
    assert lrefs == sorted(lrefs)
    # A too-deep reference (sat=1.0) hurts isolation vs the paper's
    # pre-saturation choice.
    pre = next(r for r in sats if r["value"] == 0.5)
    deep = next(r for r in sats if r["value"] == 1.0)
    assert pre["slowdown"] <= deep["slowdown"] + 0.02
    # All gains converge to workable isolation (the integral controller
    # is robust), staying within 2x of the best.
    gains = [r["slowdown"] for r in result.rows if r["knob"] == "gain"]
    assert max(gains) < 2.5 * max(min(gains), 0.05) + 0.1
