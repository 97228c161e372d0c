"""Unit tests for the FaultInjector against a small cluster."""

import pytest

from repro import GB, BigDataCluster, PolicySpec, default_cluster
from repro.faults import FaultEvent, FaultPlan
from repro.mapreduce import JobSpec
from repro.telemetry import FAULT_INJECTED

TINY = default_cluster(scale=1 / 256)


def test_unknown_target_rejected_at_construction():
    plan = FaultPlan(events=(FaultEvent.node_crash(1.0, "ghost"),))
    with pytest.raises(ValueError, match="unknown node"):
        BigDataCluster(TINY, PolicySpec.native(), faults=plan)


def test_injector_cannot_be_armed_twice():
    cl = BigDataCluster(TINY, PolicySpec.native(), faults=FaultPlan())
    with pytest.raises(RuntimeError):
        cl.faults.arm()  # the cluster already armed it


def test_no_plan_means_no_injector():
    cl = BigDataCluster(TINY, PolicySpec.native())
    assert cl.faults is None


def test_crash_and_recovery_toggle_liveness():
    plan = FaultPlan(events=(
        FaultEvent.node_crash(0.1, "dn00", duration=0.2),
    ))
    cl = BigDataCluster(TINY, PolicySpec.native(), faults=plan)
    cl.run_for(0.15)  # mid-outage
    assert not cl.faults.alive("dn00")
    assert not cl.namenode.is_alive("dn00")
    assert not cl.rm.is_alive("dn00")
    assert cl.nodes["dn00"].hdfs_device.failed
    assert cl.net.egress["dn00"].failed
    cl.run_for(0.5)  # past recovery
    assert cl.faults.alive("dn00")
    assert cl.namenode.is_alive("dn00")
    assert cl.rm.is_alive("dn00")
    assert not cl.nodes["dn00"].hdfs_device.failed
    assert not cl.net.egress["dn00"].failed
    assert cl.faults.injected == 1


def test_crashing_a_crashed_node_is_noop():
    plan = FaultPlan(events=(
        FaultEvent.node_crash(0.1, "dn00", duration=0.3),
        FaultEvent.node_crash(0.2, "dn00", duration=0.05),  # overlaps: no-op
    ))
    cl = BigDataCluster(TINY, PolicySpec.native(), faults=plan)
    cl.run_for(1.0)
    assert cl.faults.injected == 2
    assert cl.faults.alive("dn00")  # recovered via the first crash


def test_broker_outage_noop_without_broker():
    plan = FaultPlan(events=(
        FaultEvent.broker_outage(0.1, duration=0.1),
    ))
    cl = BigDataCluster(TINY, PolicySpec.native(), faults=plan)
    assert cl.broker is None
    cl.run_for(0.5)
    assert cl.faults.injected == 1


def test_jitter_is_deterministic_across_runs():
    plan = FaultPlan(events=(
        FaultEvent.node_crash(0.1, "dn00", duration=0.1, jitter=0.5),
        FaultEvent.broker_outage(0.2, duration=0.1, jitter=0.5),
    ))

    def fire_times():
        cl = BigDataCluster(TINY, PolicySpec.native(), faults=plan)
        times = []
        cl.telemetry.subscribe(FAULT_INJECTED, lambda ev: times.append(ev.t))
        cl.run_for(2.0)
        return times

    first = fire_times()
    assert first == fire_times()      # same seed + plan => same schedule
    assert len(first) == 2
    assert first[0] >= 0.1            # jitter only ever delays


def test_slow_disk_slows_a_scan():
    def runtime(plan):
        cl = BigDataCluster(TINY, PolicySpec.native(), faults=plan)
        cl.preload_input("/in/w", 10 * GB)
        job = cl.submit(JobSpec(name="scan", input_path="/in/w",
                                n_reduces=0), max_cores=96)
        cl.run(job.done)
        return job.runtime

    healthy = runtime(None)
    slow = runtime(FaultPlan(events=tuple(
        FaultEvent.slow_disk(0.0, f"dn{i:02d}", duration=1e6, factor=0.1)
        for i in range(8)
    )))
    assert slow > 1.5 * healthy

