"""Tests for the DFSClient read/write paths."""

import pytest

from repro.config import MB, default_cluster
from repro.core import IOTag, PolicySpec
from repro.cluster import BigDataCluster


def make_cluster():
    return BigDataCluster(default_cluster(), PolicySpec.native())


def test_read_file_returns_full_size():
    cl = make_cluster()
    f = cl.dfs.preload("/f", 40 * MB)
    assert f.size == 40 * MB

    def proc():
        got = yield from cl.dfs.read_file("/f", "dn00", IOTag("a"))
        return got

    assert cl.sim.run(until=cl.sim.process(proc())) == 40 * MB


def test_read_blocks_subset():
    cl = make_cluster()
    f = cl.dfs.preload("/f", 64 * MB)  # 4 blocks of 16 MB

    def proc():
        got = yield from cl.dfs.read_blocks(f, [0, 2], "dn00", IOTag("a"))
        return got

    assert cl.sim.run(until=cl.sim.process(proc())) == 32 * MB


def test_write_file_creates_and_replicates():
    cl = make_cluster()

    def proc():
        f = yield from cl.dfs.write_file("/out", 32 * MB, "dn03", IOTag("a"))
        return f

    f = cl.sim.run(until=cl.sim.process(proc()))
    assert cl.namenode.exists("/out")
    assert f.size == 32 * MB
    # writer-local primaries
    for loc in f.blocks:
        assert loc.replicas[0] == "dn03"
    total_written = sum(
        n.hdfs_device.write_meter.total for n in cl.nodes.values()
    )
    assert total_written == 32 * MB * 3


def test_read_missing_file_raises():
    cl = make_cluster()

    def proc():
        yield from cl.dfs.read_file("/nope", "dn00", IOTag("a"))

    cl.sim.process(proc())
    with pytest.raises(FileNotFoundError):
        cl.sim.run()


def test_preload_consumes_no_simulated_io():
    cl = make_cluster()
    cl.dfs.preload("/f", 160 * MB)
    assert cl.sim.now == 0.0
    for n in cl.nodes.values():
        assert n.hdfs_device.write_meter.total == 0
