"""Integration tests for BigDataCluster end-to-end behaviour."""

import pytest

from repro import (
    GB,
    BigDataCluster,
    IOClass,
    PolicySpec,
    default_cluster,
)
from repro.core import DepthController
from repro.mapreduce import JobSpec
from repro.simcore import SimulationError
from repro.workloads import teragen, wordcount

CTRL = DepthController.symmetric(0.05)


def test_run_without_jobs_rejected():
    cl = BigDataCluster(default_cluster(), PolicySpec.native())
    with pytest.raises(SimulationError):
        cl.run()


def test_cluster_builds_paper_topology():
    cfg = default_cluster()
    cl = BigDataCluster(cfg, PolicySpec.native())
    assert len(cl.nodes) == 8
    assert len(list(cl.schedulers())) == 24  # 3 classes x 8 nodes
    assert len(list(cl.schedulers(IOClass.PERSISTENT))) == 8
    assert sum(cl.rm.cores_free.values()) == 96


def test_broker_only_when_coordinated():
    cfg = default_cluster()
    assert BigDataCluster(cfg, PolicySpec.native()).broker is None
    coord = BigDataCluster(cfg, PolicySpec.sfqd(4, coordinated=True))
    assert coord.broker is not None
    assert sum(len(n.broker_clients) for n in coord.nodes.values()) == 24


def test_determinism_same_seed_same_runtimes():
    def run():
        cfg = default_cluster()
        cl = BigDataCluster(cfg, PolicySpec.sfqd2(CTRL))
        cl.preload_input("/in/w", 10 * GB)
        wc = cl.submit(wordcount(cfg, "/in/w", input_bytes=10 * GB),
                       io_weight=32.0, max_cores=48)
        cl.submit(teragen(cfg, output_bytes=64 * GB),
                  io_weight=1.0, max_cores=48)
        cl.run(wc.done)
        return wc.runtime

    assert run() == run()


def test_different_seed_changes_outcome():
    def run(seed):
        cfg = default_cluster(seed=seed)
        cl = BigDataCluster(cfg, PolicySpec.native())
        cl.preload_input("/in/w", 10 * GB)
        j = cl.submit(JobSpec(name="j", input_path="/in/w", n_reduces=0,
                              map_cpu_s_per_mb=0.1), max_cores=96)
        cl.run()
        return j.runtime

    assert run(1) != run(2)


def test_total_service_accounting_covers_all_classes():
    cfg = default_cluster()
    cl = BigDataCluster(cfg, PolicySpec.native())
    cl.preload_input("/in/w", 10 * GB)
    scaled = cfg.scaled(10 * GB)
    j = cl.submit(JobSpec(name="mr", input_path="/in/w",
                          shuffle_bytes=scaled // 2, output_bytes=scaled // 4,
                          n_reduces=2), max_cores=96)
    cl.run()
    svc = cl.total_service_by_app()
    assert j.app_id in svc
    # reads + intermediate + servlet reads + replicated writes > input
    assert svc[j.app_id] > scaled


def test_cluster_throughput_positive_after_run():
    cfg = default_cluster()
    cl = BigDataCluster(cfg, PolicySpec.native())
    cl.preload_input("/in/w", 10 * GB)
    cl.submit(JobSpec(name="scan", input_path="/in/w", n_reduces=0),
              max_cores=96)
    cl.run()
    assert cl.windowed_throughput(0.0, cl.sim.now) > 0
    with pytest.raises(ValueError):  # an empty window
        cl.windowed_throughput(0.0, 0.0)


def test_app_meters_total_the_jobs_bytes():
    cfg = default_cluster()
    cl = BigDataCluster(cfg, PolicySpec.native())
    cl.preload_input("/in/w", 10 * GB)
    j = cl.submit(JobSpec(name="scan", input_path="/in/w", n_reduces=0),
                  max_cores=96)
    cl.run()
    meters = cl.meters(j.app_id)
    assert meters
    assert sum(m.total for m in meters) == cfg.scaled(10 * GB)
    reads = cl.meters(j.app_id, op="read")
    assert sum(m.total for m in reads) == cfg.scaled(10 * GB)
    assert cl.meters(j.app_id, op="write") == []  # a scan writes nothing
    assert cl.meters("app99-none") == []


def test_meters_reject_an_unknown_op():
    cl = BigDataCluster(default_cluster(), PolicySpec.native())
    with pytest.raises(ValueError):
        cl.meters(op="erase")
    assert cl.meters(op="read") == []  # nothing completed yet


def test_io_weight_carried_on_all_requests():
    cfg = default_cluster()
    cl = BigDataCluster(cfg, PolicySpec.sfqd(4))
    cl.preload_input("/in/w", 10 * GB)
    weights = set()
    for sched in cl.schedulers():
        sched.add_submit_hook(lambda r: weights.add((r.app_id, r.weight)))
    j = cl.submit(JobSpec(name="scan", input_path="/in/w", n_reduces=0),
                  io_weight=17.0, max_cores=96)
    cl.run()
    assert weights == {(j.app_id, 17.0)}


def test_preload_skewed_placement():
    cfg = default_cluster()
    cl = BigDataCluster(cfg, PolicySpec.native())
    subset = ["dn00", "dn01"]
    cl.preload_input("/in/hot", 10 * GB, nodes=subset)
    f = cl.namenode.lookup("/in/hot")
    for loc in f.blocks:
        assert set(loc.replicas) <= set(subset)


def test_process_death_surfaces_as_simulation_error_naming_process():
    cl = BigDataCluster(default_cluster(), PolicySpec.native())

    def boom():
        yield cl.sim.timeout(0.1)
        raise ValueError("kaput")

    cl.sim.process(boom(), name="boomer")
    with pytest.raises(SimulationError, match="boomer.*ValueError.*kaput"):
        cl.run_for(1.0)


def test_devices_keep_byte_totals_schedulers_keep_samples():
    """Devices, disks and NIC links alike, count only completed bytes;
    the one time-stamped sample per completed request is the issuing
    scheduler's, and the schedulers' samples add up to the disks'
    totals."""
    cfg = default_cluster(scale=1.0 / 256)
    cl = BigDataCluster(cfg, PolicySpec.native())
    job = cl.submit(teragen(cfg, output_bytes=64 * GB), max_cores=48)
    cl.run(job.done)
    links = [*cl.net.egress.values(), *cl.net.ingress.values()]
    moved = sum(link.read_meter.total for link in links)
    assert moved == 2 * cl.net.total_bytes > 0  # both legs of each transfer
    disks = [dev for node in cl.nodes.values()
             for dev in (node.hdfs_device, node.tmp_device)]
    assert not any(
        hasattr(meter, "times")
        for dev in links + disks for meter in (dev.read_meter, dev.write_meter)
    )
    writes = cl.meters(op="write")
    assert any(meter.times for meter in writes)
    assert sum(m.total for m in writes) == sum(
        dev.write_meter.total for dev in disks) > 0
