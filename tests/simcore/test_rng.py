"""Unit tests for seeded RNG streams, and the pure-Python PCG64 stream
checked draw for draw against the installed numpy."""

import hashlib
import random
import re

import numpy as np
import pytest

from repro.simcore import RngRegistry
from repro.simcore.rng import PCG64Stream


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
])
def test_stream_raises_where_numpy_raises(op, args):
    with pytest.raises(Exception) as theirs:
        getattr(np.random.default_rng(5), op)(*args)
    with pytest.raises(theirs.type, match=re.escape(str(theirs.value))):
        getattr(PCG64Stream(5), op)(*args)


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
