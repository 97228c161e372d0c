"""Integration tests for the block service over interposed datanodes."""

import pytest

from repro.config import MB, default_cluster
from repro.core import DataNodeIO, IOClass, IOTag, PolicySpec
from repro.dataplane.streams import iter_chunks, windowed_stream
from repro.hdfs.blocks import Block, BlockLocations
from repro.hdfs.datanode import BlockService
from repro.net import NetFabric
from repro.simcore import Simulator


def make_stack(n_nodes=3, policy=None):
    sim = Simulator()
    cfg = default_cluster()
    node_ids = [f"n{i}" for i in range(n_nodes)]
    nodes = {
        nid: DataNodeIO(sim, nid, cfg, policy or PolicySpec.native())
        for nid in node_ids
    }
    net = NetFabric(sim, node_ids, cfg.nic_bandwidth)
    svc = BlockService(sim, nodes, net, chunk=4 * MB)
    return sim, nodes, net, svc


def test_iter_chunks_covers_total():
    assert list(iter_chunks(10 * MB, 4 * MB)) == [4 * MB, 4 * MB, 2 * MB]
    assert list(iter_chunks(4 * MB, 4 * MB)) == [4 * MB]
    with pytest.raises(ValueError):
        list(iter_chunks(0, 4 * MB))
    with pytest.raises(ValueError):
        list(iter_chunks(1, 0))


def test_windowed_stream_limits_concurrency():
    sim = Simulator()
    active_peak = 0
    active = 0

    def op():
        nonlocal active, active_peak

        def proc():
            nonlocal active, active_peak
            active += 1
            active_peak = max(active_peak, active)
            yield sim.timeout(1.0)
            active -= 1

        return sim.process(proc())

    def driver():
        yield from windowed_stream(sim, (op for _ in range(10)), window=3)

    sim.run(until=sim.process(driver()))
    assert active_peak == 3


def test_windowed_stream_rejects_bad_window():
    sim = Simulator()

    def driver():
        yield from windowed_stream(sim, iter(()), window=0)

    sim.process(driver())
    with pytest.raises(ValueError):
        sim.run()


def test_local_read_no_network():
    sim, nodes, net, svc = make_stack()
    loc = BlockLocations(Block(1, "/f", 0, 8 * MB), ("n0", "n1", "n2"))

    def proc():
        got = yield from svc.read_block(loc, "n0", IOTag("app"))
        return got

    assert sim.run(until=sim.process(proc())) == 8 * MB
    assert net.total_bytes == 0
    assert nodes["n0"].hdfs_device.read_meter.total == 8 * MB


def test_remote_read_crosses_network():
    sim, nodes, net, svc = make_stack()
    loc = BlockLocations(Block(1, "/f", 0, 8 * MB), ("n1", "n2"))

    def proc():
        got = yield from svc.read_block(loc, "n0", IOTag("app"))
        return got

    sim.run(until=sim.process(proc()))
    assert net.total_bytes == 8 * MB
    assert nodes["n1"].hdfs_device.read_meter.total == 8 * MB  # primary read


def test_write_block_hits_every_replica():
    sim, nodes, net, svc = make_stack()
    loc = BlockLocations(Block(1, "/f", 0, 8 * MB), ("n0", "n1", "n2"))

    def proc():
        got = yield from svc.write_block(loc, "n0", IOTag("app"))
        return got

    sim.run(until=sim.process(proc()))
    for nid in ("n0", "n1", "n2"):
        assert nodes[nid].hdfs_device.write_meter.total == 8 * MB
    # two remote replicas crossed the wire
    assert net.total_bytes == 16 * MB


def test_requests_are_tagged_with_app_and_class():
    sim, nodes, net, svc = make_stack()
    loc = BlockLocations(Block(1, "/f", 0, 4 * MB), ("n0",))
    seen = []
    nodes["n0"].schedulers[IOClass.PERSISTENT].add_submit_hook(
        lambda req: seen.append((req.app_id, req.weight, req.io_class))
    )

    def proc():
        yield from svc.read_block(loc, "n0", IOTag("job42", 8.0))

    sim.run(until=sim.process(proc()))
    assert seen == [("job42", 8.0, IOClass.PERSISTENT)]
