"""Memory held by parked work: a map task waiting for its container, and
a shuffle fetch waiting for one of its reducer's slots.

An AppMaster starts every map of a job at once, and a reducer starts one
fetch per map output, so the bytes each parked one holds, times the
queue length, set a run's peak memory.  Both park in a small generator
that ``yield from``s the task body only once its wait is over.  The
bounds sit between the bytes measured here before that split (1,913 per
map and 972 per fetch) and after it (1,080 and 784), on CPython 3.11;
other minor versions lay objects out differently.
"""

import gc
import sys
import tracemalloc

import pytest

from repro import BigDataCluster, PolicySpec, default_cluster
from repro.config import MB, TB
from repro.core import IOTag
from repro.dataplane import CancelScope
from repro.mapreduce import JobSpec
from repro.mapreduce.job import Job, MapOutput
from repro.mapreduce.task import SHUFFLE_PARALLELISM, run_reduce_task
from repro.workloads import teragen

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="byte bounds are calibrated on CPython 3.11's object layouts",
)


def _bytes_held(start) -> int:
    """Traced bytes that ``start()`` leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        start()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_parked_map_task_bytes():
    """A 4 TB TeraGen at 1/16 scale: 48 maps run, the rest wait for a
    container."""
    config = default_cluster(scale=1 / 16)
    cl = BigDataCluster(config, PolicySpec.native())
    spec = teragen(config, 4 * TB)

    def start():
        cl.submit(spec, max_cores=48)
        cl.sim.run(until=0.001)

    held = _bytes_held(start)
    parked = len(cl.rm._pending)
    assert parked == cl.jobs[0].n_maps_total - 48 > 16_000
    assert held / parked <= 1_100


def test_parked_shuffle_fetch_bytes():
    """One reducer over 2,000 map outputs: five fetches hold a slot, the
    rest wait for one."""
    n = 2_000
    cl = BigDataCluster(default_cluster(), PolicySpec.native())
    spec = JobSpec(name="shuffle", n_maps=n, shuffle_bytes=n * MB, n_reduces=1)
    job = Job(cl.sim, spec, "app01-shuffle", IOTag("app01-shuffle"))
    job.n_maps_total = n
    job.map_outputs = [
        MapOutput(i, cl.node_ids[i % len(cl.node_ids)], MB) for i in range(n)
    ]

    def start():
        cl.sim.process(run_reduce_task(cl.env, job, "dn00", CancelScope(), 0))
        cl.sim.run(until=0.001)

    held = _bytes_held(start)
    assert job.reduces_completed == 0
    assert held / (n - SHUFFLE_PARALLELISM) <= 850
