"""Named, seeded random-number streams.

Every stochastic decision in the simulation (data placement, compute
jitter, fault jitter, ...) draws from a stream keyed by a stable name,
derived from one root seed.  Two runs with the same root seed are
bit-identical regardless of the order in which subsystems are created.

A stream is a pure-Python PCG64 that reproduces
``numpy.random.default_rng(seed)`` bit for bit for the draws the
simulator and the SWIM trace make, so a run needs no numpy;
``tests/simcore/test_rng.py`` checks it against the installed numpy.
Exponential and normal draws use numpy's 256-layer ziggurat with its
own tables (:mod:`repro.simcore.ziggurat_tables`).
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct

from repro.simcore import ziggurat_tables as _zt

__all__ = ["PCG64Stream", "RngRegistry"]

_M32 = 0xFFFFFFFF
_M52 = 0x000FFFFFFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy.random.SeedSequence's hash constants (pool of four 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# The ziggurat layers: integer acceptance bounds (k), abscissa widths
# (w) and curve heights (f), exponential then normal.
KE, WE, FE, KI, WI, FI = (
    struct.unpack(f"<256{kind}", bytes.fromhex(table))
    for kind, table in (("Q", _zt.KE), ("d", _zt.WE), ("d", _zt.FE),
                        ("Q", _zt.KI), ("d", _zt.WI), ("d", _zt.FI)))


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    # The seed's 32-bit words, little end first (0 is one zero word).
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64Stream:
    """``numpy.random.default_rng(seed)`` for the draws the simulator
    makes: ``uniform``, ``choice`` without replacement, ``random``,
    ``exponential``, ``lognormal`` and their standard forms.  Each
    raises where numpy's does."""

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        s0, s1, i0, i1 = _seed_state(seed)
        # pcg_setseq_128_srandom_r: step, add the initial state, step.
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _M128
        self._has_uint32 = False
        self._uinteger = 0

    def _next64(self) -> int:
        """PCG64's XSL-RR output of the next LCG state."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        """One half of a 64-bit output: the low half now, the high half
        (buffered) on the next call."""
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        out = self._next64()
        self._has_uint32 = True
        self._uinteger = out >> 32
        return out & _M32

    def _bounded(self, rng: int) -> int:
        """A uniform integer in ``[0, rng]``, ``rng < 2**32 - 1``:
        Lemire's method on 32-bit draws."""
        if rng == 0:
            return 0
        rng_excl = rng + 1
        m = self._next32() * rng_excl
        if m & _M32 < rng_excl:
            threshold = (_M32 - rng) % rng_excl
            while m & _M32 < threshold:
                m = self._next32() * rng_excl
        return m >> 32

    def random(self) -> float:
        """A float in [0, 1)."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float in [low, high)."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
        return low + span * self.random()

    def standard_exponential(self) -> float:
        """An Exp(1) draw: numpy's ziggurat on one 64-bit output (bits
        3-10 pick the layer, the top 53 the abscissa)."""
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return x
            if idx == 0:  # the tail past r, memoryless: r + Exp(1)
                return _zt.ZIGGURAT_EXP_R - math.log1p(-self.random())
            if ((FE[idx - 1] - FE[idx]) * self.random() + FE[idx]
                    < math.exp(-x)):
                return x  # under the curve in the layer's wedge

    def standard_normal(self) -> float:
        """An N(0, 1) draw: numpy's ziggurat on one 64-bit output (bits
        0-7 pick the layer, bit 8 the sign, the next 52 the abscissa)."""
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = r >> 1 & _M52
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:  # Marsaglia's tail past r
                while True:
                    xx = -_zt.ZIGGURAT_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        tail = _zt.ZIGGURAT_NOR_R + xx
                        return -tail if rabs >> 8 & 1 else tail
            elif ((FI[idx - 1] - FI[idx]) * self.random() + FI[idx]
                    < math.exp(-0.5 * x * x)):
                return x  # under the curve in the layer's wedge

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential draw with mean ``scale``."""
        scale = float(scale)
        if not math.isnan(scale) and math.copysign(1.0, scale) < 0:
            raise ValueError("scale < 0")
        return scale * self.standard_exponential()

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """``exp`` of a normal draw with ``mean`` and ``sigma``; ``inf``
        where the exponential overflows, as in C."""
        mean, sigma = float(mean), float(sigma)
        if not math.isnan(sigma) and math.copysign(1.0, sigma) < 0:
            raise ValueError("sigma < 0")
        try:
            return math.exp(mean + sigma * self.standard_normal())
        except OverflowError:
            return math.inf

    def choice(self, a: int, size: int, replace: bool = True) -> list[int]:
        """``size`` distinct integers from ``range(a)``, in random order
        (numpy's ``choice(a, size, replace=False)``)."""
        if replace:
            raise ValueError("only choice(..., replace=False) is supported")
        pop_size, size = operator.index(a), operator.index(size)
        if pop_size <= 0 and size != 0:
            raise ValueError(
                "a must be a positive integer unless no samples are taken")
        if size > pop_size:
            raise ValueError("Cannot take a larger sample than population "
                             "when replace is False")
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        if pop_size > _M32:  # numpy would draw 64-bit bounded integers
            raise ValueError("a population above 2**32 - 1 is unsupported")
        if pop_size > 10000 and size > pop_size // 50:
            # A tail shuffle of the whole population.
            idx = list(range(pop_size))
            self._shuffle(idx, max(pop_size - size, 1))
            return idx[pop_size - size:]
        # Floyd's algorithm, then a full shuffle.
        idx, seen = [], set()
        for j in range(pop_size - size, pop_size):
            val = self._bounded(j)
            if val in seen:
                val = j
            seen.add(val)
            idx.append(val)
        self._shuffle(idx, 1)
        return idx

    def _shuffle(self, data: list[int], first: int) -> None:
        """Fisher-Yates from the back, settling positions ``n - 1`` down
        to ``first``."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]


class RngRegistry:
    """Factory for per-purpose :class:`PCG64Stream` streams."""

    def __init__(self, root_seed: int = 20160531):  # HPDC'16 opening day
        if root_seed < 0:
            raise ValueError("root seed must be non-negative")
        self.root_seed = int(root_seed)
        self._streams: dict[str, PCG64Stream] = {}

    def stream(self, name: str) -> PCG64Stream:
        """Return (creating if needed) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.root_seed}:{name}".encode("utf-8")
            ).digest()
            seed = int.from_bytes(digest[:8], "little")
            gen = self._streams[name] = PCG64Stream(seed)
        return gen
