#!/usr/bin/env python
"""Flash asymmetry study: why SFQ(D2) splits its reference latencies.

On an SSD, writes are several times slower than reads and queued writes
delay subsequent reads.  The paper's controller therefore profiles
separate read/write reference latencies and blends them by the observed
mix each period (§4).  This example:

1. profiles the SSD model, showing the asymmetric references;
2. runs the WC+TG isolation scenario on SSDs with (a) the split
   references and (b) a naive single reference taken from the *read*
   profile only.  Against a write-heavy aggressor the naive reference
   reads every period as "overloaded", pins the depth low, and gives up
   cluster throughput; the split reference isolates equally well while
   letting TeraGen keep the flash busy.

Run:  python examples/ssd_study.py
"""

import dataclasses

from repro import GB, MB, BigDataCluster, PolicySpec, SSD_PROFILE, default_cluster
from repro.core.profiling import calibrate_controller
from repro.workloads import teragen, wordcount


def run_wc(config, policy, with_tg=True):
    cluster = BigDataCluster(config, policy)
    cluster.preload_input("/in/wiki", 50 * GB)
    wc = cluster.submit(wordcount(config, "/in/wiki"),
                        io_weight=32.0, max_cores=48)
    if with_tg:
        cluster.submit(teragen(config), io_weight=1.0, max_cores=48)
    cluster.run(wc.done)
    return wc.runtime, cluster.windowed_throughput(0.0, wc.finish_time) / MB


def main() -> None:
    config = default_cluster(storage=SSD_PROFILE)
    ctrl = calibrate_controller(config)
    print("profiled SSD references: "
          f"read {ctrl.ref_latency_read * 1000:.1f} ms, "
          f"write {ctrl.ref_latency_write * 1000:.1f} ms "
          f"({ctrl.ref_latency_write / ctrl.ref_latency_read:.1f}x asymmetry)\n")

    alone, _ = run_wc(config, PolicySpec.native(), with_tg=False)
    native, thr_native = run_wc(config, PolicySpec.native())
    split, thr_split = run_wc(config, PolicySpec.sfqd2(ctrl))

    # Naive controller: single reference taken from the read profile.
    naive = dataclasses.replace(ctrl, ref_latency_write=ctrl.ref_latency_read)
    naive_rt, thr_naive = run_wc(config, PolicySpec.sfqd2(naive))

    print(f"WordCount alone:              {alone:6.2f} s")
    print(f"+ TeraGen, native:            {native:6.2f} s "
          f"({100 * (native / alone - 1):3.0f}%)  cluster {thr_native:5.0f} MB/s")
    print(f"+ TeraGen, SFQ(D2) split ref: {split:6.2f} s "
          f"({100 * (split / alone - 1):3.0f}%)  cluster {thr_split:5.0f} MB/s")
    print(f"+ TeraGen, SFQ(D2) naive ref: {naive_rt:6.2f} s "
          f"({100 * (naive_rt / alone - 1):3.0f}%)  cluster {thr_naive:5.0f} MB/s")


if __name__ == "__main__":
    main()
