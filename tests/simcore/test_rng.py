"""Unit tests for seeded RNG streams, and the pure-Python PCG64 stream
checked draw for draw against the installed numpy."""

import hashlib
import math
import pathlib
import random
import re
import struct

import numpy as np
import pytest

from repro.simcore import RngRegistry
from repro.simcore import ziggurat_tables
from repro.simcore.rng import KE, KI, PCG64Stream


def _draws(stream, n):
    return [stream.random() for _ in range(n)]


def test_same_name_same_stream_object():
    reg = RngRegistry(1)
    assert reg.stream("a") is reg.stream("a")


def test_streams_are_reproducible_across_registries():
    a = _draws(RngRegistry(42).stream("placement"), 5)
    b = _draws(RngRegistry(42).stream("placement"), 5)
    assert a == b


def test_different_names_differ():
    reg = RngRegistry(42)
    assert _draws(reg.stream("x"), 5) != _draws(reg.stream("y"), 5)


def test_different_seeds_differ():
    a = _draws(RngRegistry(1).stream("x"), 5)
    b = _draws(RngRegistry(2).stream("x"), 5)
    assert a != b


def test_creation_order_does_not_matter():
    r1 = RngRegistry(7)
    r1.stream("first")
    a = _draws(r1.stream("second"), 3)
    r2 = RngRegistry(7)
    b = _draws(r2.stream("second"), 3)
    assert a == b


# ------------------------------------------------------ numpy oracle
def _stream_seed(root: int, name: str) -> int:
    """How a registry seeds stream ``name`` (first 8 bytes of a SHA-256)."""
    digest = hashlib.sha256(f"{root}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


SIM_STREAMS = [_stream_seed(root, name)
               for root in (20160531, 7)
               for name in ("placement", "task-jitter", "faults")]
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345, 2**130 + 3]
_SEEDER = random.Random(2016)
ORACLE_SEEDS = EDGE_SEEDS + SIM_STREAMS + [
    _SEEDER.getrandbits(64) for _ in range(200)]


def _interleaved(gen, plan):
    """Run ``plan`` (a list of draws) on ``gen``; plain Python values."""
    out = []
    for op, args in plan:
        if op == "choice":
            out.append([int(i) for i in gen.choice(*args, replace=False)])
        else:
            out.append(float(getattr(gen, op)(*args)))
    return out


def _plan(rnd: random.Random, n_draws: int = 40):
    plan = []
    for _ in range(n_draws):
        kind = rnd.randrange(4)
        if kind == 0:
            plan.append(("uniform", (0.9, 1.1)))
        elif kind == 1:
            low = rnd.uniform(-10.0, 10.0)
            plan.append(("uniform", (low, low + rnd.uniform(0.0, 1e6))))
        elif kind == 2:
            n = rnd.randrange(1, 12)
            plan.append(("choice", (n, rnd.randrange(0, n + 1))))
        else:
            plan.append(("random", ()))
    return plan


def test_streams_match_numpy_on_interleaved_draws():
    """``uniform`` spends a 64-bit output while ``choice`` draws 32-bit
    halves, so interleaving them checks the buffered half survives."""
    rnd = random.Random(531)
    assert len(set(ORACLE_SEEDS)) > 200
    for seed in ORACLE_SEEDS:
        plan = _plan(rnd)
        assert _interleaved(PCG64Stream(seed), plan) == _interleaved(
            np.random.default_rng(seed), plan), seed


def test_registry_streams_are_numpy_streams_of_their_seed():
    for root in (20160531, 7):
        reg = RngRegistry(root)
        for name in ("placement", "task-jitter", "faults"):
            plan = _plan(random.Random(name))
            assert _interleaved(reg.stream(name), plan) == _interleaved(
                np.random.default_rng(_stream_seed(root, name)), plan)


@pytest.mark.parametrize("n,size", [
    (20000, 500),         # numpy's tail-shuffle branch
    (20000, 10),          # Floyd over a large population
    (3 * 2**30, 4),       # Lemire rejects a quarter of the draws
])
def test_choice_matches_numpy_on_large_populations(n, size):
    for seed in (3, 2**64 - 1):
        ours, theirs = PCG64Stream(seed), np.random.default_rng(seed)
        ours.uniform(), theirs.uniform()
        assert ours.choice(n, size, replace=False) == theirs.choice(
            n, size, replace=False).tolist()
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("op,args", [
    ("uniform", (1.0, 0.0)),                  # high - low < 0
    ("uniform", (0.0, -0.0)),                 # a negative zero range
    ("uniform", (0.0, float("inf"))),         # non-finite range
    ("uniform", (float("nan"), 1.0)),
    ("uniform", (-1e308, 1e308)),             # range overflows
    ("choice", (3, 4, False)),                # size > n
    ("choice", (0, 1, False)),                # empty population
    ("choice", (3, -1, False)),               # negative size
    ("exponential", (-1.0,)),                 # scale < 0
    ("exponential", (-0.0,)),
    ("lognormal", (0.0, -1.0)),               # sigma < 0
    ("lognormal", (0.0, -0.0)),
])
def test_stream_raises_where_numpy_raises(op, args):
    theirs_gen, ours_gen = np.random.default_rng(5), PCG64Stream(5)
    with pytest.raises(Exception) as theirs:
        getattr(theirs_gen, op)(*args)
    with pytest.raises(theirs.type, match=re.escape(str(theirs.value))):
        getattr(ours_gen, op)(*args)
    assert ours_gen.random() == theirs_gen.random()  # nothing was drawn


def test_choice_outside_the_port_is_unsupported():
    with pytest.raises(ValueError, match="replace=False"):
        PCG64Stream(5).choice(3, 2)
    with pytest.raises(ValueError, match="unsupported"):
        PCG64Stream(5).choice(2**32, 2, replace=False)


def test_empty_choice_draws_nothing():
    ours, theirs = PCG64Stream(9), np.random.default_rng(9)
    assert ours.choice(0, 0, replace=False) == []
    assert theirs.choice(0, 0, replace=False).tolist() == []
    assert ours.random() == theirs.random()


# ------------------------------------------------- ziggurat draws vs numpy
def _ziggurat_plan(rnd: random.Random, n_draws: int = 40):
    """Exponential and normal draws interleaved with the 64-bit
    ``uniform``/``random`` and the 32-bit ``choice``."""
    plan = []
    for _ in range(n_draws):
        kind = rnd.randrange(7)
        if kind == 0:
            plan.append(("standard_exponential", ()))
        elif kind == 1:
            plan.append(("standard_normal", ()))
        elif kind == 2:
            plan.append(("exponential", (rnd.choice([0.5, 4.0, 1e9]),)))
        elif kind == 3:
            plan.append(("lognormal", (rnd.uniform(-5.0, 25.0),
                                       rnd.choice([0.1, 1.3, 3.0]))))
        elif kind == 4:
            plan.append(("uniform", (0.9, 1.1)))
        elif kind == 5:
            n = rnd.randrange(1, 12)
            plan.append(("choice", (n, rnd.randrange(0, n + 1))))
        else:
            plan.append(("random", ()))
    return plan


def test_ziggurat_draws_match_numpy_interleaved_with_the_others():
    rnd = random.Random(1705)
    assert {0, 2**32, 2**64 - 1} <= set(ORACLE_SEEDS)
    for seed in ORACLE_SEEDS:
        plan = _ziggurat_plan(rnd)
        assert _interleaved(PCG64Stream(seed), plan) == _interleaved(
            np.random.default_rng(seed), plan), seed


def _branch(stream, op):
    """Which ziggurat branch ``stream``'s next ``op`` draw starts in:
    ``fast`` (inside the layer's rectangle), ``wedge`` or ``tail``
    (layer 0).  Peeks at the next 64-bit output, then rewinds."""
    state = stream._state
    r = stream._next64()
    stream._state = state
    if op == "standard_exponential":
        idx, ab = r >> 3 & 0xFF, r >> 11
        inside = ab < KE[idx]
    else:
        idx, ab = r & 0xFF, r >> 9 & 0x000FFFFFFFFFFFFF
        inside = ab < KI[idx]
    return "fast" if inside else "tail" if idx == 0 else "wedge"


#: (draw, seed, index of the draw in a stream of only that draw, the
#: branch it starts in, the value numpy 2.4.6 returns for it)
RARE_BRANCHES = [
    ("standard_exponential", 0, 26, "wedge", 0.4482107633481293),
    ("standard_exponential", 0, 295, "tail", 8.128754306660403),
    ("standard_normal", 0, 74, "wedge", 1.8220113633283233),
    ("standard_normal", 0, 303, "tail", -3.772275156122734),
]


@pytest.mark.parametrize("op,seed,index,branch,value", RARE_BRANCHES)
def test_named_draws_reach_each_rare_branch(op, seed, index, branch, value):
    ours, theirs = PCG64Stream(seed), np.random.default_rng(seed)
    for i in range(index):
        assert getattr(ours, op)() == getattr(theirs, op)(), i
    assert _branch(ours, op) == branch
    assert getattr(ours, op)() == getattr(theirs, op)() == value
    assert ours.random() == theirs.random()


def test_standard_draws_match_numpy_through_every_branch():
    hits = {}
    for seed in ORACLE_SEEDS[:200]:
        for op in ("standard_exponential", "standard_normal"):
            ours, theirs = PCG64Stream(seed), np.random.default_rng(seed)
            for _ in range(250):
                branch = _branch(ours, op)
                hits[op, branch] = hits.get((op, branch), 0) + 1
                assert getattr(ours, op)() == getattr(theirs, op)(), seed
    # 50,000 draws of each, so every branch is taken many times.
    assert hits == {
        ("standard_exponential", "fast"): 48886,
        ("standard_exponential", "wedge"): 1084,
        ("standard_exponential", "tail"): 30,
        ("standard_normal", "fast"): 49257,
        ("standard_normal", "wedge"): 733,
        ("standard_normal", "tail"): 10,
    }


def test_ziggurat_draws_are_pinned():
    """numpy 2.4.6's values, kept here so the port stays pinned should a
    later numpy change its streams."""
    s = PCG64Stream(0)
    assert [s.standard_exponential() for _ in range(3)] == [
        0.6799319039689096, 1.0195971014658647, 0.019806662589055352]
    assert [s.standard_normal() for _ in range(3)] == [
        0.10490011715303971, -0.535669373161111, 0.36159505490948474]
    swim = PCG64Stream(20090101)  # the SWIM trace's first two draws
    assert swim.exponential(4.0) == 12.31707860800257
    assert swim.lognormal(math.log(2 * 2**30), 1.3) == 4661085390.690967


@pytest.mark.parametrize("op,args,expect", [
    ("exponential", (float("nan"),), "nan"),
    ("exponential", (float("-nan"),), "nan"),  # sign bit set, yet no raise
    ("exponential", (float("inf"),), "inf"),
    ("exponential", (0.0,), "0.0"),
    ("lognormal", (float("nan"), 1.0), "nan"),
    ("lognormal", (0.0, float("nan")), "nan"),
    ("lognormal", (0.0, float("-nan")), "nan"),
    ("lognormal", (1e308, 1.0), "inf"),      # math.exp would overflow
    ("lognormal", (float("inf"), 1.0), "inf"),
    ("lognormal", (float("-inf"), 1.0), "0.0"),
])
def test_special_parameters_behave_as_numpy(op, args, expect):
    """Each still consumes its draw: the next ``random`` agrees."""
    ours, theirs = PCG64Stream(11), np.random.default_rng(11)
    got, want = getattr(ours, op)(*args), getattr(theirs, op)(*args)
    assert repr(got) == repr(want) == expect
    assert ours.random() == theirs.random()


NUMPY_RANDOM_LIB = (pathlib.Path(np.__file__).parent / "random" / "lib"
                    / "libnpyrandom.a")


@pytest.mark.skipif(not NUMPY_RANDOM_LIB.exists(),
                    reason="this numpy ships no libnpyrandom.a")
def test_ziggurat_tables_are_bytes_of_the_installed_numpy():
    """Every table and constant occurs byte for byte in the object the
    installed numpy's ziggurat is compiled from."""
    archive = NUMPY_RANDOM_LIB.read_bytes()
    for name in ("KE", "WE", "FE", "KI", "WI", "FI"):
        table = bytes.fromhex(getattr(ziggurat_tables, name))
        assert len(table) == 2048 and table in archive, name
    # numpy's object holds -ziggurat_nor_inv_r, the value its code uses.
    for value in (ziggurat_tables.ZIGGURAT_EXP_R,
                  ziggurat_tables.ZIGGURAT_NOR_R,
                  -ziggurat_tables.ZIGGURAT_NOR_INV_R):
        assert struct.pack("<d", value) in archive, value
