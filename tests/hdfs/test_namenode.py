"""Unit tests for the NameNode: namespace and replica placement."""

import numpy as np
import pytest

from repro.config import MB
from repro.hdfs import NameNode
from repro.hdfs.blocks import Block, BlockLocations

NODES = [f"dn{i}" for i in range(8)]


def make_nn(replication=3, block_size=16 * MB, nodes=NODES):
    return NameNode(nodes, block_size=block_size, replication=replication,
                    rng=np.random.default_rng(7))


def test_constructor_validation():
    with pytest.raises(ValueError):
        NameNode([], 16 * MB, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        NameNode(NODES, 0, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        NameNode(NODES, 16 * MB, 0, np.random.default_rng(0))


def test_replication_capped_at_cluster_size():
    nn = NameNode(["a", "b"], 16 * MB, replication=3,
                  rng=np.random.default_rng(0))
    assert nn.replication == 2


def test_split_into_blocks_sizes():
    nn = make_nn()
    blocks = nn.split_into_blocks("/f", 40 * MB)
    assert [b.size for b in blocks] == [16 * MB, 16 * MB, 8 * MB]
    assert [b.index for b in blocks] == [0, 1, 2]
    # ids are unique and monotone
    ids = [b.block_id for b in blocks]
    assert len(set(ids)) == 3


def test_split_rejects_empty_file():
    with pytest.raises(ValueError):
        make_nn().split_into_blocks("/f", 0)


def test_create_file_places_replicas_distinct():
    nn = make_nn()
    f = nn.create_file("/f", 64 * MB, spread=True)
    assert f.size == 64 * MB
    for loc in f.blocks:
        assert len(loc.replicas) == 3
        assert len(set(loc.replicas)) == 3


def test_create_file_duplicate_rejected():
    nn = make_nn()
    nn.create_file("/f", 1 * MB)
    with pytest.raises(FileExistsError):
        nn.create_file("/f", 1 * MB)


def test_lookup_missing_raises():
    with pytest.raises(FileNotFoundError):
        make_nn().lookup("/nope")


def test_writer_local_primary():
    nn = make_nn()
    f = nn.create_file("/f", 32 * MB, writer_node="dn3")
    for loc in f.blocks:
        assert loc.replicas[0] == "dn3"


def test_spread_round_robins_primaries():
    nn = make_nn()
    f = nn.create_file("/f", 8 * 16 * MB, spread=True)
    primaries = [loc.replicas[0] for loc in f.blocks]
    assert sorted(primaries) == sorted(NODES)  # perfectly even


def test_candidates_restrict_placement():
    nn = make_nn()
    subset = ["dn0", "dn1", "dn2"]
    f = nn.create_file("/f", 64 * MB, spread=True, candidates=subset)
    for loc in f.blocks:
        assert set(loc.replicas) <= set(subset)


def test_candidates_unknown_node_rejected():
    nn = make_nn()
    with pytest.raises(ValueError):
        nn.place_replicas(candidates=["ghost"])


def test_delete_removes_file():
    nn = make_nn()
    nn.create_file("/f", 1 * MB)
    nn.delete("/f")
    assert not nn.exists("/f")
    nn.delete("/f")  # idempotent


def test_files_listing_sorted():
    nn = make_nn()
    nn.create_file("/b", 1 * MB)
    nn.create_file("/a", 1 * MB)
    assert nn.files() == ["/a", "/b"]


def test_block_location_closest():
    b = Block(1, "/f", 0, 4 * MB)
    loc = BlockLocations(b, ("dn1", "dn2", "dn3"))
    assert loc.closest("dn2") == "dn2"   # local wins
    assert loc.closest("dn7") == "dn1"   # else primary


def test_block_validation():
    with pytest.raises(ValueError):
        Block(1, "/f", 0, 0)
    with pytest.raises(ValueError):
        Block(1, "/f", -1, 5)
    with pytest.raises(ValueError):
        BlockLocations(Block(1, "/f", 0, 5), ())


# ----------------------------------------------------------- liveness

def test_dead_node_excluded_from_placement():
    nn = make_nn()
    nn.node_down("dn3")
    assert not nn.is_alive("dn3")
    for _ in range(20):
        assert "dn3" not in nn.place_replicas()
    nn.node_up("dn3")
    assert nn.is_alive("dn3")


def test_node_down_unknown_rejected():
    with pytest.raises(ValueError):
        make_nn().node_down("ghost")


def test_placement_fails_when_all_candidates_dead():
    nn = make_nn()
    nn.node_down("dn0")
    nn.node_down("dn1")
    with pytest.raises(ValueError, match="no live datanode"):
        nn.place_replicas(candidates=["dn0", "dn1"])


def test_placement_degrades_below_replication_when_pool_small():
    nn = make_nn(replication=3)
    for n in NODES[2:]:
        nn.node_down(n)  # only dn0, dn1 left alive
    replicas = nn.place_replicas()
    assert set(replicas) == {"dn0", "dn1"}
    assert len(replicas) == 2  # fewer than replication, but all live


def test_dead_writer_falls_back_to_live_primary():
    nn = make_nn()
    nn.node_down("dn3")
    replicas = nn.place_replicas(writer_node="dn3")
    assert "dn3" not in replicas


def test_writer_outside_candidate_pool_not_primary():
    nn = make_nn()
    subset = {"dn0", "dn1", "dn2"}
    replicas = nn.place_replicas(writer_node="dn5", candidates=sorted(subset))
    assert replicas[0] in subset
    assert set(replicas) <= subset
