"""A node crash while reducers shuffle.

The other fault tests run map-only scans; these crash a node during a
sort's shuffle, where reduce attempts die, their fetch processes are
cancelled and the AppMaster's join over its tasks sees the retries.
Both runs are pinned to the exact figures of the engine they were
written against, so a change in how tasks or fetches are started and
joined shows up as a moved number.
"""

import pytest

from repro import GB, BigDataCluster, PolicySpec, default_cluster
from repro.faults import FaultEvent, FaultPlan
from repro.mapreduce import JobSpec
from repro.simcore import SimulationError
from repro.telemetry import TASK_RETRY, TaskRetry

SORT = JobSpec(name="sort", input_path="/in/s", shuffle_bytes=2 * GB,
               output_bytes=GB // 2, n_reduces=4)

#: runtime of SORT on a healthy cluster
HEALTHY_RUNTIME = 33.633924102213015


def _sort_run(faults=None):
    """SORT over 2 GB on the default cluster; returns (cluster, job,
    every ``TaskRetry`` in publication order)."""
    cl = BigDataCluster(default_cluster(), PolicySpec.native(), faults=faults)
    retries: list[TaskRetry] = []
    cl.telemetry.subscribe(TASK_RETRY, retries.append)
    cl.preload_input("/in/s", 2 * GB)
    job = cl.submit(SORT, max_cores=96)
    return cl, job, retries


def test_healthy_sort_runtime():
    cl, job, retries = _sort_run()
    cl.run()
    assert job.runtime == HEALTHY_RUNTIME
    assert retries == []


def test_crash_during_shuffle_retries_the_reducer_on_it():
    """dn03 is down for half a second mid-shuffle: the reducer running
    there dies, is re-run elsewhere, and the job finishes. One of the
    dead attempt's fetches is cancelled after its reducer died, and is
    counted as cancellation collateral, not raised."""
    plan = FaultPlan(events=(FaultEvent.node_crash(7.75, "dn03", duration=0.5),))
    cl, job, retries = _sort_run(plan)
    cl.run()
    assert job.runtime == 33.20891736149789
    assert [(r.task, r.node, r.attempt, r.t) for r in retries] == [
        ("red2", "dn03", 1, 7.75)]
    assert cl.sim.cancelled_collateral == 1
    assert cl.sim.orphaned_faults == 0


def test_crash_during_shuffle_exhausts_every_reducer_at_once():
    """dn01 is down for a tenth of the healthy runtime from its middle.
    A reduce attempt that loses a fetch to the dead node is retried at
    once and fetches from the same dead node again, so every reducer
    uses up its attempts without simulated time passing. Pinned as the
    model behaves; Hadoop would re-run the lost maps instead."""
    t0 = HEALTHY_RUNTIME
    plan = FaultPlan(events=(
        FaultEvent.node_crash(0.5 * t0, "dn01", duration=0.1 * t0),))
    cl, job, retries = _sort_run(plan)
    with pytest.raises(SimulationError) as failed:
        cl.run()
    assert str(failed.value) == (
        f"task red0 of {job.app_id} failed 4 attempts (last on dn00)")
    assert job.app_id == "app01-sort"
    assert {r.t for r in retries} == {16.816962051106508}
    first = [("red0", "dn01"), ("red1", "dn02"), ("red2", "dn03"),
             ("red3", "dn04")]
    later = [("red0", "dn00"), ("red1", "dn02"), ("red2", "dn03"),
             ("red3", "dn04")]
    assert [(r.task, r.node, r.attempt) for r in retries] == (
        [(t, n, 1) for t, n in first] + [(t, n, 2) for t, n in later]
        + [(t, n, 3) for t, n in later])
    assert (cl.sim.cancelled_collateral, cl.sim.orphaned_faults) == (0, 0)
