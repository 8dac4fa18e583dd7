"""Tests for repro.utils.rng: determinism, distribution sanity, and the
block-computed SplitMix64 stream against the published algorithm."""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.utils.rng import (
    _BLOCK,
    SplitMix64,
    derive_seed,
    float_threshold,
    splitmix64_stream,
    stable_hash64,
)

_MASK64 = (1 << 64) - 1


def _reference_splitmix64(seed: int, n: int) -> list[int]:
    """The scalar SplitMix64 formula, one value per step (the oracle)."""
    state = seed & _MASK64
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def _reference_stable_hash64(*parts: object) -> int:
    """FNV-1a one byte at a time over every part and its 0xFF separator
    (the oracle for the zero-run multiply and the long-string memo)."""
    h = 0xCBF29CE484222325
    for part in parts:
        if isinstance(part, int):
            try:
                data = part.to_bytes(16, "little", signed=True)
            except OverflowError:
                data = part.to_bytes((part.bit_length() + 8) // 8, "little", signed=True)
        else:
            data = str(part).encode("utf-8")
        for byte in data + b"\xff":
            h ^= byte
            h = (h * 0x100000001B3) & _MASK64
    return h


_HASH_PARTS = st.one_of(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.text(max_size=20),
    st.text(min_size=250, max_size=300),
)


class TestStableHash64:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_HASH_PARTS, min_size=1, max_size=4))
    def test_property_matches_per_byte_formula(self, parts):
        assert stable_hash64(*parts) == _reference_stable_hash64(*parts)

    def test_long_string_memo_keys_on_the_state(self):
        long = "m" * 1008
        for prefix in ((), (1,), ("x",), (2**130,)):
            parts = (*prefix, long, 7)
            assert stable_hash64(*parts) == _reference_stable_hash64(*parts)
        assert stable_hash64(long, 1) != stable_hash64(1, long)

    def test_deterministic_across_calls(self):
        assert stable_hash64("a", 1, "b") == stable_hash64("a", 1, "b")

    def test_different_inputs_differ(self):
        assert stable_hash64("a") != stable_hash64("b")
        assert stable_hash64(1) != stable_hash64(2)
        assert stable_hash64("a", "b") != stable_hash64("ab")

    def test_known_value_stability(self):
        # Pin a value so accidental algorithm changes are caught: the whole
        # reproduction's determinism contract hangs off this function.
        assert stable_hash64(12345, "trace", "mcf", 0) == stable_hash64(
            12345, "trace", "mcf", 0
        )

    def test_negative_ints_supported(self):
        assert stable_hash64(-1) != stable_hash64(1)

    def test_result_is_64_bit(self):
        for parts in [("x",), (2**80,), ("a", "b", "c")]:
            h = stable_hash64(*parts)
            assert 0 <= h < 2**64

    def test_ints_beyond_128_bits_hash_and_in_range_values_are_pinned(self):
        # ints of 128 bits or more used to raise OverflowError.
        assert stable_hash64(2**127) != stable_hash64(-(2**127) - 1)
        assert 0 <= stable_hash64(2**300, -(2**300)) < 2**64
        assert stable_hash64(2**127 - 1) == 0xE61B883960AB115E
        assert stable_hash64(-(2**127)) == 0x4C4681FFD084AA2E
        assert stable_hash64(12345, "trace", "mcf", 0) == 0x15122D753D2BFB69

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(), min_size=1, max_size=5))
    def test_property_stable(self, parts):
        assert stable_hash64(*parts) == stable_hash64(*parts)


class TestDeriveSeed:
    def test_scopes_differ(self):
        s = 42
        assert derive_seed(s, "walk") != derive_seed(s, "code")
        assert derive_seed(s, "walk", 0) != derive_seed(s, "walk", 1)

    def test_masters_differ(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_numpy_friendly_range(self):
        for i in range(50):
            assert 0 <= derive_seed(i, "scope", i) < 2**31


class TestSplitMix64:
    def test_deterministic(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_diverge(self):
        a = SplitMix64(1)
        b = SplitMix64(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_float_range(self):
        rng = SplitMix64(7)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_float_mean_near_half(self):
        rng = SplitMix64(11)
        vals = [rng.next_float() for _ in range(20_000)]
        mean = sum(vals) / len(vals)
        assert abs(mean - 0.5) < 0.02

    def test_next_below_range(self):
        rng = SplitMix64(3)
        for _ in range(1000):
            assert 0 <= rng.next_below(17) < 17

    def test_next_below_covers_values(self):
        rng = SplitMix64(5)
        seen = {rng.next_below(8) for _ in range(500)}
        assert seen == set(range(8))

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_property_u64_in_range(self, seed):
        rng = SplitMix64(seed)
        for _ in range(5):
            assert 0 <= rng.next_u64() < 2**64


class TestSplitMix64Stream:
    # Known answers from the reference splitmix64.c (Vigna).
    def test_known_answers_seed_0(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_known_answers_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(2)] == [
            0x599ED017FB08FC85,
            0x2C73F08458540FA5,
        ]

    @settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(
            st.sampled_from([0, _MASK64, -1, -(2**63), 2**64]),
            st.integers(min_value=-(2**70), max_value=2**70),
        )
    )
    def test_stream_matches_scalar_reference(self, seed):
        # 3 blocks + 1 value: the comparison crosses two block boundaries
        # and starts a fourth block.
        n = 3 * _BLOCK + 1
        expected = _reference_splitmix64(seed, n)
        assert list(islice(splitmix64_stream(seed), n)) == expected
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(n)] == expected

    def test_next_float_and_below_read_the_stream(self):
        ref = _reference_splitmix64(42, 3)
        rng = SplitMix64(42)
        assert rng.next_float() == (ref[0] >> 11) * 2.0**-53
        assert rng.next_below(1000) == ref[1] % 1000
        assert rng.next_u64() == ref[2]


_EDGE_PROBABILITIES = [0.0, 2.0**-53, 0.05, 0.5, 1.0 - 2.0**-53, 1.0, 1.5, -0.1]


def _threshold_agrees(p: float, u: int) -> bool:
    return (u < float_threshold(p)) == ((u >> 11) * 2.0**-53 < p)


def _probe_draws(t: int, rnd: random.Random) -> list[int]:
    near = [t - 1, t, t - 2048, t + 2047, 0, _MASK64]
    return [u for u in near if 0 <= u <= _MASK64] + [rnd.getrandbits(64) for _ in range(8)]


class TestFloatThreshold:
    @pytest.mark.parametrize("p", _EDGE_PROBABILITIES)
    def test_edge_probabilities(self, p):
        rnd = random.Random(p)
        for u in _probe_draws(float_threshold(p), rnd):
            assert _threshold_agrees(p, u), (p, u)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=_MASK64),
    )
    def test_property_matches_float_comparison(self, p, u):
        assert _threshold_agrees(p, u)
        for v in _probe_draws(float_threshold(p), random.Random(u)):
            assert _threshold_agrees(p, v), (p, v)
