"""Cross-layer property tests: conservation and fairness invariants that
must hold for any workload the stack can generate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GB, MB, default_cluster
from repro.core import IOClass, PolicySpec
from repro.core.sfqd2 import DepthController
from repro.cluster import BigDataCluster
from repro.mapreduce import JobSpec

CTRL = DepthController.symmetric(0.05)

POLICIES = [
    PolicySpec.native(),
    PolicySpec.sfqd(depth=2),
    PolicySpec.sfqd(depth=8),
    PolicySpec.sfqd2(CTRL),
    PolicySpec.sfqd2(CTRL, coordinated=True),
    PolicySpec.cgroups_weight(),
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: f"{p.kind}"
                         + ("+sync" if p.coordinated else ""))
def test_input_bytes_conserved_under_every_policy(policy):
    """Whatever the scheduler, a scan job reads exactly its input."""
    cfg = default_cluster()
    cl = BigDataCluster(cfg, policy)
    cl.preload_input("/in", 16 * GB)
    job = cl.submit(JobSpec(name="scan", input_path="/in", n_reduces=0),
                    max_cores=96)
    cl.run()
    total_read = sum(n.hdfs_device.read_meter.total for n in cl.nodes.values())
    assert total_read == cfg.scaled(16 * GB)
    assert cl.total_service_by_app()[job.app_id] == cfg.scaled(16 * GB)


@settings(max_examples=10, deadline=None)
@given(
    n_reduces=st.integers(min_value=1, max_value=6),
    shuffle_mb=st.integers(min_value=16, max_value=256),
    out_mb=st.integers(min_value=4, max_value=64),
)
def test_property_pipeline_volume_accounting(n_reduces, shuffle_mb, out_mb):
    """HDFS writes = 3x declared output (replication); shuffle servlet
    reads equal the fetched partitions; nothing is lost, whatever the
    job geometry."""
    cfg = default_cluster()
    cl = BigDataCluster(cfg, PolicySpec.native())
    cl.preload_input("/in", 8 * GB)
    spec = JobSpec(
        name="mr",
        input_path="/in",
        shuffle_bytes=shuffle_mb * MB,
        output_bytes=out_mb * MB,
        n_reduces=n_reduces,
    )
    job = cl.submit(spec, max_cores=96)
    cl.run()

    fetched = sum(
        (o.nbytes // n_reduces) * n_reduces for o in job.map_outputs
    )
    servlet_reads = sum(
        sum(s.stats.service_by_app.values())
        for s in cl.schedulers(IOClass.NETWORK)
    )
    assert servlet_reads == fetched

    hdfs_writes = sum(n.hdfs_device.write_meter.total for n in cl.nodes.values())
    assert hdfs_writes == (spec.output_bytes // n_reduces) * n_reduces * 3


@settings(max_examples=6, deadline=None)
@given(weight=st.sampled_from([2.0, 8.0, 32.0]))
def test_property_weighted_app_never_worse_than_equal_weight(weight):
    """Raising an app's IBIS weight must not increase its runtime under
    the same contention (monotonicity of the control knob)."""
    def run(w):
        cfg = default_cluster()
        cl = BigDataCluster(cfg, PolicySpec.sfqd(depth=2))
        cl.preload_input("/in", 8 * GB)
        fav = cl.submit(JobSpec(name="fav", input_path="/in", n_reduces=0),
                        io_weight=w, max_cores=48)
        cl.submit(JobSpec(name="hog", n_maps=64, n_reduces=0,
                          output_bytes=cfg.scaled(256 * GB)),
                  io_weight=1.0, max_cores=48)
        cl.run(fav.done)
        return fav.runtime

    assert run(weight) <= run(1.0) * 1.1  # jitter tolerance


def test_fifo_vs_sfq_same_total_work():
    """Schedulers reorder work; they must not create or destroy it."""
    def total_bytes(policy):
        cfg = default_cluster()
        cl = BigDataCluster(cfg, policy)
        cl.preload_input("/in", 8 * GB)
        cl.submit(JobSpec(name="a", input_path="/in", n_reduces=0),
                  max_cores=48)
        cl.submit(JobSpec(name="b", n_maps=16, n_reduces=0,
                          output_bytes=cfg.scaled(8 * GB)), max_cores=48)
        cl.run()
        return sum(
            d.read_meter.total + d.write_meter.total
            for n in cl.nodes.values()
            for d in (n.hdfs_device, n.tmp_device)
        )

    assert total_bytes(PolicySpec.native()) == total_bytes(PolicySpec.sfqd(2))
