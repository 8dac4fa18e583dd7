"""Deterministic seeding utilities.

Every stochastic component of the reproduction (trace synthesis, wrong-path
instruction supply, address stream perturbation) derives its random state from
a single master seed through :func:`derive_seed`, so a simulation is
bit-reproducible given ``(workload, policy, config, seed)``.

The hashing here is intentionally *not* Python's built-in ``hash`` — that is
salted per process (PYTHONHASHSEED) and would break reproducibility across
runs.

SplitMix64 output is computed a block at a time (:func:`splitmix64_stream`):
``_BLOCK`` generator states share one Python integer in 128-bit lanes, so
the mixing function runs as about fifteen big-integer operations per block
instead of a Python method call per value. The low 64 bits of a lane hold
its state; the high half is headroom that absorbs both the bits a right
shift pulls down from the next lane and the upper half of a 64x64-bit
product, and is masked off before it can reach the low half.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import chain, count

__all__ = [
    "stable_hash64",
    "derive_seed",
    "SplitMix64",
    "splitmix64_stream",
    "float_threshold",
]

_MASK64 = (1 << 64) - 1
# FNV-1a 64-bit parameters.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# FNV-1a over k zero bytes is one multiply by _FNV_PRIME**k (``h ^= 0`` is a
# no-op). An int's bytes end in at most 16 zero bytes: its 16-byte form
# holds the whole run, and a wider form has at most a zero sign byte.
_ZERO_RUN = [pow(_FNV_PRIME, k, 1 << 64) for k in range(17)]

# SplitMix64 increment ("golden gamma") and finalizer multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Values per block. Sizes from 256 to 16384 cost about the same per value;
#: a small block keeps the partly used block an idle stream holds (every
#: cached trace's address space has one) small.
_BLOCK = 1024
_BLOCK_BYTES = 16 * _BLOCK
_BLOCK_STEP = (_BLOCK * _GAMMA) & _MASK64
# Per-lane constants: 1 in every lane, gamma * j in lane j (1-based), and
# the low-64-bit mask of every lane.
_ONES = int.from_bytes((1).to_bytes(16, "little") * _BLOCK, "little")
_GAMMA_IDX = int.from_bytes(
    b"".join((_GAMMA * j).to_bytes(16, "little") for j in range(1, _BLOCK + 1)),
    "little",
)
_LANES = int.from_bytes(_MASK64.to_bytes(16, "little") * _BLOCK, "little")


def _fnv1a(h: int, data: bytes) -> int:
    """FNV-1a state ``h`` after ``data``, one byte at a time."""
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


#: Long string parts (``repr(machine)`` is about 1 KB) recur with the same
#: state in every result-cache key, and a dict lookup beats the byte loop.
_fnv1a_long = lru_cache(maxsize=64)(_fnv1a)


def stable_hash64(*parts: object) -> int:
    """Hash an arbitrary tuple of ints/strings to a stable 64-bit value.

    Uses FNV-1a over each part's bytes (16-byte two's complement for ints,
    wider for ints beyond 128 bits, UTF-8 of ``str(part)`` otherwise), which
    is stable across processes and Python versions (unlike built-in
    ``hash``). An int's trailing zero bytes cost one multiply, and string
    parts of 256 bytes or more are memoized; the values are those of the
    plain byte loop.
    """
    h = _FNV_OFFSET
    for part in parts:
        if isinstance(part, int):
            try:
                data = part.to_bytes(16, "little", signed=True)
            except OverflowError:
                # Beyond 128 bits: as many bytes as it needs, so every
                # in-range hash stays what it was.
                data = part.to_bytes((part.bit_length() + 8) // 8, "little", signed=True)
            body = data.rstrip(b"\0")
            h = (_fnv1a(h, body) * _ZERO_RUN[len(data) - len(body)]) & _MASK64
        else:
            data = str(part).encode("utf-8")
            h = (_fnv1a_long if len(data) >= 256 else _fnv1a)(h, data)
        # Part separator (0xFF never appears in UTF-8 and breaks the
        # 16-byte int framing): ("a","b") must differ from ("ab",).
        h ^= 0xFF
        h = (h * _FNV_PRIME) & _MASK64
    return h


def derive_seed(master: int, *scope: object) -> int:
    """Derive a sub-seed for a named component from a master seed.

    ``derive_seed(seed, "trace", "mcf", 0)`` always yields the same value for
    the same inputs, and different values for different scopes with
    overwhelming probability.
    """
    # The 31-bit mask is part of the determinism contract: widening it would
    # change every derived seed, hence every trace and every golden digest.
    return stable_hash64(master, *scope) & 0x7FFFFFFF


def _block(state: int) -> array[int]:
    """The ``_BLOCK`` SplitMix64 outputs whose states follow ``state``."""
    z = (state * _ONES + _GAMMA_IDX) & _LANES
    z = ((z ^ (z >> 30)) & _LANES) * _MIX1 & _LANES
    z = ((z ^ (z >> 27)) & _LANES) * _MIX2 & _LANES
    # No final mask: the high half of each lane is the odd word dropped below.
    words = array("Q", (z ^ (z >> 31)).to_bytes(_BLOCK_BYTES, "little"))
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        words.byteswap()
    return words[::2]


def splitmix64_stream(seed: int) -> Iterator[int]:
    """Endless SplitMix64 output for ``seed`` (masked to 64 bits).

    Yields exactly the values successive ``SplitMix64(seed).next_u64()``
    calls return, computed ``_BLOCK`` at a time; one value is one
    ``__next__`` call on a C-level iterator.
    """
    states = count(seed & _MASK64, _BLOCK_STEP)
    return chain.from_iterable(map(_block, map(_MASK64.__and__, states)))


def float_threshold(p: float) -> int:
    """Integer ``t`` with ``u < t`` exactly when ``(u >> 11) * 2**-53 < p``.

    Lets a hot loop test a raw 64-bit draw ``u`` against probability ``p``
    without converting it to a float, with the same outcome for every ``u``
    as :meth:`SplitMix64.next_float`. Exact: scaling by a power of two
    loses nothing, and an integer is below ``p * 2**53`` exactly when it is
    below its ceiling.
    """
    return math.ceil(p * (1 << 53)) << 11


class SplitMix64:
    """Small deterministic PRNG (splitmix64) over :func:`splitmix64_stream`.

    Builds the synthetic code layout; the trace walk and the address space
    draw from the stream directly. Not cryptographic; excellent statistical
    quality for simulation purposes.
    """

    __slots__ = ("next_u64",)

    def __init__(self, seed: int) -> None:
        #: Next raw 64-bit value.
        self.next_u64: Callable[[], int] = splitmix64_stream(seed).__next__

    def next_float(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_below(self, n: int) -> int:
        """Uniform int in [0, n). n must be positive."""
        return self.next_u64() % n
