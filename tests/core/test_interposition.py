"""Unit tests for PolicySpec and the per-datanode interposition layer."""

import pytest

from repro.config import MB, default_cluster
from repro.core import (
    DataNodeIO,
    DepthController,
    IOClass,
    IORequest,
    IOTag,
    NativeScheduler,
    PolicySpec,
    SchedulingBroker,
    SFQD2Scheduler,
)
from repro.core.cgroups import CgroupsThrottleScheduler, CgroupsWeightScheduler
from repro.simcore import Simulator

CTRL = DepthController.symmetric(0.05)


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicySpec(kind="bogus")
    with pytest.raises(ValueError):
        PolicySpec(kind="sfqd2")  # missing controller
    with pytest.raises(ValueError):
        PolicySpec(kind="cgroups-throttle")  # missing rates
    with pytest.raises(ValueError):
        PolicySpec(kind="native", coordinated=True)


def test_policy_constructors():
    assert PolicySpec.native().kind == "native"
    assert PolicySpec.sfqd(depth=2).depth == 2
    assert PolicySpec.sfqd2(CTRL).controller is CTRL
    assert PolicySpec.cgroups_weight().kind == "cgroups-weight"
    assert PolicySpec.cgroups_throttle({"a": 1.0}).throttle_rates == {"a": 1.0}


def test_native_node_has_native_everywhere():
    sim = Simulator()
    node = DataNodeIO(sim, "n0", default_cluster(), PolicySpec.native())
    for c in IOClass:
        assert isinstance(node.scheduler(c), NativeScheduler)


def test_sfqd2_node_has_sfqd2_everywhere():
    sim = Simulator()
    node = DataNodeIO(sim, "n0", default_cluster(), PolicySpec.sfqd2(CTRL))
    for c in IOClass:
        assert isinstance(node.scheduler(c), SFQD2Scheduler)


def test_schedulers_is_a_read_only_view_of_the_paths():
    """Requests route through ``paths``; a scheduler assigned into
    ``schedulers`` would never see one, so assignment must fail."""
    sim = Simulator()
    node = DataNodeIO(sim, "n0", default_cluster(), PolicySpec.native())
    for c in IOClass:
        assert node.schedulers[c] is node.path(c).scheduler
    with pytest.raises(TypeError):
        node.schedulers[IOClass.PERSISTENT] = NativeScheduler(
            sim, node.hdfs_device
        )
    with pytest.raises(AttributeError):
        node.schedulers = {}


def test_cgroups_controls_only_intermediate_class():
    """§6: containers cannot differentiate HDFS or shuffle I/Os."""
    sim = Simulator()
    node = DataNodeIO(sim, "n0", default_cluster(), PolicySpec.cgroups_weight())
    assert isinstance(node.scheduler(IOClass.INTERMEDIATE), CgroupsWeightScheduler)
    assert isinstance(node.scheduler(IOClass.PERSISTENT), NativeScheduler)
    assert isinstance(node.scheduler(IOClass.NETWORK), NativeScheduler)

    node2 = DataNodeIO(
        sim, "n1", default_cluster(), PolicySpec.cgroups_throttle({"a": 1.0 * MB})
    )
    assert isinstance(node2.scheduler(IOClass.INTERMEDIATE), CgroupsThrottleScheduler)
    assert isinstance(node2.scheduler(IOClass.PERSISTENT), NativeScheduler)


def test_devices_split_by_class():
    """HDFS data and intermediate data live on separate disks (§7.1)."""
    sim = Simulator()
    node = DataNodeIO(sim, "n0", default_cluster(), PolicySpec.sfqd(depth=2))
    assert node.scheduler(IOClass.PERSISTENT).device is node.hdfs_device
    assert node.scheduler(IOClass.INTERMEDIATE).device is node.tmp_device
    assert node.scheduler(IOClass.NETWORK).device is node.tmp_device


def test_submit_routes_by_class():
    sim = Simulator()
    node = DataNodeIO(sim, "n0", default_cluster(), PolicySpec.sfqd(depth=4))
    reqs = {
        c: IORequest(sim, IOTag("a"), "read", 1 * MB, c) for c in IOClass
    }
    for req in reqs.values():
        node.submit(req)
    sim.run()
    assert node.scheduler(IOClass.PERSISTENT).stats.total_requests == 1
    assert node.scheduler(IOClass.INTERMEDIATE).stats.total_requests == 1
    assert node.scheduler(IOClass.NETWORK).stats.total_requests == 1


def test_coordinated_policy_attaches_broker_clients():
    sim = Simulator()
    broker = SchedulingBroker(sim)
    node = DataNodeIO(
        sim, "n0", default_cluster(), PolicySpec.sfqd(depth=4, coordinated=True),
        broker=broker,
    )
    assert len(node.broker_clients) == 3  # one per interposition point


def test_uncoordinated_policy_has_no_broker_clients():
    sim = Simulator()
    node = DataNodeIO(sim, "n0", default_cluster(), PolicySpec.sfqd(depth=4))
    assert node.broker_clients == []
