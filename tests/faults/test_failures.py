"""End-to-end failure handling: failover, retry, outage, determinism."""

import re
from dataclasses import replace

import pytest

from repro import GB, BigDataCluster, PolicySpec, default_cluster
from repro.core import DepthController
from repro.faults import FaultEvent, FaultPlan
from repro.mapreduce import JobSpec
from repro.simcore import SimulationError
from repro.telemetry import REPLICA_FAILOVER, TASK_RETRY, CounterSink, TaskRetry

CFG = default_cluster()
CTRL = DepthController.symmetric(0.05)

SCAN = dict(name="scan", input_path="/in/w", n_reduces=0)


def _scan_run(cfg=CFG, policy=None, faults=None, nodes=None):
    """One 10 GB scan under ``policy``; returns (cluster, job, counters)."""
    cl = BigDataCluster(cfg, policy or PolicySpec.native(), faults=faults)
    failovers = CounterSink(cl.telemetry, REPLICA_FAILOVER)
    retries = CounterSink(cl.telemetry, TASK_RETRY)
    cl.preload_input("/in/w", 10 * GB, nodes=nodes)
    job = cl.submit(JobSpec(**SCAN), max_cores=96)
    return cl, job, failovers, retries


def _healthy_runtime(**kw):
    cl, job, _f, _r = _scan_run(**kw)
    cl.run()
    return job.runtime


def test_empty_plan_is_equivalent_to_no_plan():
    """FaultPlan() arms the machinery but injects nothing: the run must
    be indistinguishable from one without the fault layer."""
    runs = []
    for faults in (None, FaultPlan()):
        cl, job, _f, _r = _scan_run(faults=faults)
        cl.run()
        runs.append((job.runtime, cl.total_service_by_app()))
    assert runs[0] == runs[1]


def test_transient_crash_jobs_finish_with_task_retries():
    t0 = _healthy_runtime()
    plan = FaultPlan(events=(
        FaultEvent.node_crash(0.3 * t0, "dn00", duration=0.2 * t0),
    ))
    cl, job, _failovers, retries = _scan_run(faults=plan)
    cl.run()
    assert job.finish_time is not None
    assert retries.count >= 1          # dn00's tasks were re-attempted
    assert job.runtime >= t0           # losing a node never speeds it up
    assert cl.faults.injected == 1


def test_crash_of_sole_replica_holder_causes_failover():
    """All replicas on dn00 (skewed preload), dn00 crashes transiently:
    remote readers must fail over / retry until the node returns."""
    t0 = _healthy_runtime(nodes=["dn00"])
    plan = FaultPlan(
        events=(
            FaultEvent.node_crash(0.3 * t0, "dn00", duration=0.1 * t0),
        ),
        # 3 retries at backoff b, 2b, 4b: the last lands past recovery.
        read_backoff=0.05 * t0,
    )
    cl, job, failovers, _retries = _scan_run(faults=plan, nodes=["dn00"])
    cl.run()
    assert job.finish_time is not None
    assert failovers.count >= 1


def test_same_seed_and_plan_give_identical_runs():
    t0 = _healthy_runtime()
    plan = FaultPlan(events=(
        FaultEvent.node_crash(0.3 * t0, "dn00", duration=0.2 * t0, jitter=0.1),
        FaultEvent.slow_disk(0.5 * t0, "dn01", duration=0.2 * t0, factor=0.25),
    ))

    def run():
        cl, job, failovers, retries = _scan_run(faults=plan)
        cl.run()
        return (job.runtime, cl.total_service_by_app(),
                failovers.count, retries.count, cl.sim.orphaned_faults)

    assert run() == run()


def test_retry_budget_exhaustion_raises_simulation_error():
    cfg = replace(CFG, yarn=replace(CFG.yarn, max_task_attempts=1))
    t0 = _healthy_runtime(cfg=cfg)
    plan = FaultPlan(events=(
        FaultEvent.node_crash(0.3 * t0, "dn00"),  # permanent
    ))
    cl, _job, _f, _r = _scan_run(cfg=cfg, faults=plan)
    with pytest.raises(SimulationError, match="attempt"):
        cl.run()


def test_retried_map_avoids_the_node_it_died_on():
    """Every block has its two replicas on dn00 and dn01, and both
    crash for good, so map attempts die until one runs out of attempts.
    Each re-request prefers the map's replica nodes minus those its
    attempts died on (all of them when none is left), the retries of a
    map count up from 1, and the budget error names the task."""
    cfg = replace(CFG, yarn=replace(CFG.yarn, max_task_attempts=3))
    nodes = ["dn00", "dn01"]
    t0 = _healthy_runtime(cfg=cfg, nodes=nodes)
    plan = FaultPlan(events=(
        FaultEvent.node_crash(0.3 * t0, "dn00"),
        FaultEvent.node_crash(0.5 * t0, "dn01"),
    ))
    cl, job, _f, _r = _scan_run(cfg=cfg, faults=plan, nodes=nodes)
    # One log of retries and container requests, in the order they
    # happen: a retry's re-request follows it at once.
    log = []
    cl.telemetry.subscribe(TASK_RETRY, log.append)
    request = cl.rm.request_container

    def logged_request(app_id, vcores, memory, preferred=()):
        log.append(tuple(preferred))
        return request(app_id, vcores, memory, preferred)

    cl.rm.request_container = logged_request
    with pytest.raises(SimulationError) as failed:
        cl.run()

    blocks = cl.namenode.lookup("/in/w").blocks
    retries: dict[str, list] = {}
    some_left = set()
    for retry, preferred in zip(log, log[1:]):
        if not isinstance(retry, TaskRetry):
            continue
        assert re.fullmatch(r"map\d+", retry.task)
        assert retry.source == job.app_id
        retries.setdefault(retry.task, []).append(retry)
        dead = {r.node for r in retries[retry.task]}
        replicas = blocks[int(retry.task[3:])].replicas
        left = tuple(n for n in replicas if n not in dead)
        assert preferred == (left or replicas)
        some_left.add(bool(left))
    assert some_left == {True, False}  # both cases were reached
    for task_retries in retries.values():
        attempts = [r.attempt for r in task_retries]
        assert attempts == list(range(1, len(attempts) + 1))
    # The exhausted map is one whose two retries were logged above.
    match = re.fullmatch(
        rf"task (map\d+) of {job.app_id} failed 3 attempts \(last on dn\d+\)",
        str(failed.value),
    )
    assert match and len(retries[match.group(1)]) == 2


def test_broker_outage_skips_rounds_and_job_finishes():
    # A fast sync period so coordination rounds land inside the window.
    policy = PolicySpec(kind="sfqd2", controller=CTRL, coordinated=True,
                        sync_period=0.02)
    t0 = _healthy_runtime(policy=policy)
    plan = FaultPlan(events=(
        FaultEvent.broker_outage(0.2 * t0, duration=0.5 * t0),
    ))
    cl, job, _f, _r = _scan_run(policy=policy, faults=plan)
    cl.run()
    assert job.finish_time is not None
    assert not cl.broker.down
    skipped = sum(c.rounds_skipped
                  for n in cl.nodes.values() for c in n.broker_clients)
    assert skipped >= 1
