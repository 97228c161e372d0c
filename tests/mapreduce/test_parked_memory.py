"""Memory held by parked work: a map task waiting for its container, and
a shuffle fetch waiting for one of its reducer's slots.

An AppMaster queues every map of a job at once, and a reducer queues one
fetch per map output, so the bytes each parked one holds, times the
queue length, set a run's peak memory.  A parked map is a small record
hung on its container event, and a parked fetch a ``(MapOutput, part)``
pair; each gets its process only once its wait is over, and the joins
over those processes hold none that has finished.  The bounds sit
between the bytes measured here when a parked map and fetch were each a
process in a small generator (1,080 per map, 784 per fetch, and 579 per
fetched output at merge start) and as records (520, 111 and 227), on
CPython 3.11; other minor versions lay objects out differently.  Since
a completed request leaves one time-stamped sample, the scheduler's,
and none on the device, a fetched output leaves 129 bytes at merge
start.
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

#: map outputs a reducer shuffles in the fetch tests
N_OUTPUTS = 2_000


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


def _shuffle_job(n: int):
    """A cluster and a one-reduce job whose ``n`` 1 MB map outputs all
    exist already."""
    cl = BigDataCluster(default_cluster(), PolicySpec.native())
    spec = JobSpec(name="shuffle", n_maps=n, shuffle_bytes=n * MB, n_reduces=1)
    job = Job(cl.sim, spec, "app01-shuffle", IOTag("app01-shuffle"))
    job.n_maps_total = n
    job.map_outputs = [
        MapOutput(i, cl.node_ids[i % len(cl.node_ids)], MB) for i in range(n)
    ]
    return cl, job


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
    assert held / parked <= 600


def test_parked_shuffle_fetch_bytes():
    """One reducer over 2,000 map outputs: five fetches hold a slot, the
    rest wait for one."""
    cl, job = _shuffle_job(N_OUTPUTS)

    def start():
        cl.sim.process(run_reduce_task(cl.env, job, "dn00", CancelScope(), 0))
        cl.sim.run(until=0.001)

    held = _bytes_held(start)
    assert job.reduces_completed == 0
    assert held / (N_OUTPUTS - SHUFFLE_PARALLELISM) <= 150


def test_reducer_bytes_per_fetched_output_when_its_merge_starts():
    """The same reducer, measured as its merge starts (its first read of
    the local disk): every fetch has finished, and nothing the reducer
    keeps should grow with the fetches it ran."""
    cl, job = _shuffle_job(N_OUTPUTS)
    lfs = cl.env.localfs["dn00"]
    merge_started = cl.sim.event()
    held = []
    read = lfs.read

    def first_read(nbytes, tag):
        if not held:
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
            merge_started.succeed()
        return read(nbytes, tag)

    lfs.read = first_read

    def start():
        cl.sim.process(run_reduce_task(cl.env, job, "dn00", CancelScope(), 0))
        cl.sim.run(until=merge_started)

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        start()
    finally:
        tracemalloc.stop()
    assert job.reduces_completed == 0
    assert (held[0] - base) / N_OUTPUTS <= 160
