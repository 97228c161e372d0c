"""Map and reduce task processes.

A task is a generator-coroutine running inside a granted container.
Its I/O follows Figure 1:

* **map**: read split from HDFS (persistent) → compute → spill map
  output locally (intermediate); map-only jobs write straight to HDFS.
* **reduce**: shuffle each map's partition — servlet read at the source
  (network class), wire transfer, spill at the sink (intermediate) —
  then merge (intermediate reads), compute, and write the final output
  to HDFS through the replication pipeline (persistent).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.config import MB
from repro.dataplane import CancelScope
from repro.hdfs import DFSClient
from repro.localfs import LocalFS
from repro.mapreduce.job import Job, MapOutput
from repro.net import NetFabric
from repro.simcore import Simulator
from repro.simcore.rng import PCG64Stream
from repro.telemetry import TelemetryBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector

__all__ = ["TaskEnv", "run_map_task", "run_reduce_task"]

#: how many map outputs a reducer copies concurrently (Hadoop default 5)
SHUFFLE_PARALLELISM = 5


@dataclass
class TaskEnv:
    """Everything a task needs from the cluster."""

    sim: Simulator
    dfs: DFSClient
    localfs: dict[str, LocalFS]
    net: NetFabric
    rng: PCG64Stream  # or anything with numpy's ``uniform``
    telemetry: Optional[TelemetryBus] = None
    faults: Optional["FaultInjector"] = None

    def jitter(self) -> float:
        """±10% multiplicative compute-time jitter."""
        return float(self.rng.uniform(0.9, 1.1))


def _cpu_time(nbytes: float, s_per_mb: float, env: TaskEnv) -> float:
    if nbytes <= 0 or s_per_mb <= 0:
        return 0.0
    return (nbytes / MB) * s_per_mb * env.jitter()


def run_map_task(env: TaskEnv, job: Job, node_id: str, scope: CancelScope,
                 map_index: int, split_blocks: tuple[int, ...]):
    """Generator: one map task on ``node_id``.

    Every I/O the task issues is registered with ``scope`` for
    cancellation: if the attempt dies, its still-queued requests are
    withdrawn from the schedulers instead of draining as orphans.
    """
    sim = env.sim
    spec = job.spec
    tag = job.tag.scoped(scope)

    # 1. Input: read the split from HDFS, or nothing for generator jobs.
    input_bytes = 0
    if spec.input_path is not None:
        f = env.dfs.namenode.lookup(spec.input_path)
        input_bytes = yield from env.dfs.read_blocks(f, split_blocks, node_id, tag)

    # 2. Compute.
    if spec.n_reduces > 0:
        map_out = spec.shuffle_bytes // job.n_maps_total
    else:
        map_out = 0
    hdfs_out = 0
    if spec.n_reduces == 0 and spec.output_bytes > 0:
        hdfs_out = spec.output_bytes // job.n_maps_total
    processed = input_bytes if input_bytes > 0 else max(map_out, hdfs_out)
    cpu = _cpu_time(processed, spec.map_cpu_s_per_mb, env)
    if cpu > 0:
        yield sim.timeout(cpu)

    # 3. Output.
    if map_out > 0:
        lfs = env.localfs[node_id]
        spill_bytes = int(map_out * spec.map_spill_factor)
        yield from lfs.write(spill_bytes, tag)
        reread = spill_bytes - map_out  # merge passes re-read extra spills
        if reread > 0:
            yield from lfs.read(reread, tag)
    if hdfs_out > 0:
        path = f"/out/{job.app_id}/part-m-{map_index:05d}"
        # A retried attempt overwrites the dead attempt's partial output.
        nn = env.dfs.namenode
        if nn.exists(path):
            nn.delete(path)
        yield from env.dfs.write_file(path, hdfs_out, node_id, tag)

    job.note_map_output(MapOutput(map_index, node_id, map_out))


def run_reduce_task(env: TaskEnv, job: Job, node_id: str, scope: CancelScope,
                    reduce_index: int):
    """Generator: one reduce task on ``node_id``."""
    sim = env.sim
    spec = job.spec
    tag = job.tag.scoped(scope)
    lfs = env.localfs[node_id]
    merge_f = spec.reduce_merge_factor
    fetched = 0

    # At most SHUFFLE_PARALLELISM fetches run at once, in the order the
    # map outputs appeared.  A fetch waiting for a slot is only its
    # (MapOutput, part) pair: its process is made when it gets one.
    free = SHUFFLE_PARALLELISM
    parked: deque[tuple[MapOutput, int]] = deque()
    fetches = sim.join()

    def start(out: MapOutput, part: int) -> None:
        nonlocal free
        if free:
            free -= 1
            fetches.add(sim.process(fetch_body(out, part), name="fetch"))
        else:
            parked.append((out, part))

    def fetch_body(out: MapOutput, part: int):
        nonlocal free
        try:
            # Source side: the NM shuffle servlet reads the map output
            # from the source node's temporary disk (NETWORK class, §3).
            src_lfs = env.localfs[out.node_id]
            yield from src_lfs.servlet_read(part, tag)
            yield env.net.transfer(out.node_id, node_id, part)
            if merge_f > 0:
                # Sink side: spill the copied partition locally.
                yield from lfs.write(part, tag)
        finally:
            # Hand the slot to the fetch parked longest, if any.
            if parked:
                fetches.add(
                    sim.process(fetch_body(*parked.popleft()), name="fetch"))
            else:
                free += 1

    # Progressive shuffle: copy each map's partition as it appears.
    n_fetches = 0
    consumed = 0
    while consumed < job.n_maps_total:
        while consumed >= len(job.map_outputs):
            yield job.map_output_gate.wait()
        out = job.map_outputs[consumed]
        consumed += 1
        part = out.nbytes // spec.n_reduces
        if part <= 0:
            continue
        fetched += part
        n_fetches += 1
        # The fetch takes a slot, or parks, when this call pops.
        sim.call_in(0.0, partial(start, out, part))
    if n_fetches:
        yield fetches.arm(n_fetches)

    # Merge: each shuffled byte is read back merge_factor times, and
    # written (merge_factor - 1) extra times beyond the shuffle spill.
    if fetched > 0 and merge_f > 0:
        extra_writes = int(fetched * (merge_f - 1.0))
        if extra_writes > 0:
            yield from lfs.write(extra_writes, tag)
        merge_reads = int(fetched * merge_f)
        if merge_reads > 0:
            yield from lfs.read(merge_reads, tag)

    # Reduce compute + final HDFS output.
    reduce_input = spec.shuffle_bytes // spec.n_reduces
    cpu = _cpu_time(reduce_input, spec.reduce_cpu_s_per_mb, env)
    if cpu > 0:
        yield sim.timeout(cpu)
    out_bytes = spec.output_bytes // spec.n_reduces
    if out_bytes > 0:
        path = f"/out/{job.app_id}/part-r-{reduce_index:05d}"
        nn = env.dfs.namenode
        if nn.exists(path):
            nn.delete(path)
        yield from env.dfs.write_file(path, out_bytes, node_id, tag)

    job.note_reduce_done()
