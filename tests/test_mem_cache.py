"""Tests for the set-associative cache model, including an LRU reference model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.memory import CacheConfig
from repro.mem.cache import Cache


def tiny_cache(assoc=2, sets=4, banks=2) -> Cache:
    line = 64
    return Cache(CacheConfig("t", sets * assoc * line, assoc, line, banks, 1))


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        c = tiny_cache()
        assert not c.probe(5)
        c.fill(5)
        assert c.probe(5)

    def test_geometry(self):
        c = Cache(CacheConfig("g", 64 * 1024, 2, 64, 8, 1))
        assert c.cfg.num_lines == 1024
        assert c.cfg.num_sets == 512

    def test_lru_within_set(self):
        c = tiny_cache(assoc=2, sets=4)
        # Lines 0, 4, 8 all map to set 0.
        c.fill(0)
        c.fill(4)
        c.fill(8)  # evicts 0
        assert not c.contains(0)
        assert c.contains(4)
        assert c.contains(8)

    def test_probe_refreshes_lru(self):
        c = tiny_cache(assoc=2, sets=4)
        c.fill(0)
        c.fill(4)
        c.probe(0)  # refresh -> victim should be 4
        c.fill(8)
        assert c.contains(0)
        assert not c.contains(4)

    def test_fill_returns_victim(self):
        c = tiny_cache(assoc=2, sets=4)
        c.fill(0)
        c.fill(4)
        assert c.fill(8) == 0

    def test_fill_existing_is_noop(self):
        c = tiny_cache()
        c.fill(3)
        assert c.fill(3) == -1
        assert c.occupancy() == 1

    def test_fill_victim_order_at_assoc_3(self):
        c = tiny_cache(assoc=3, sets=4)
        # Lines 1, 5, 9, 13, 17 all map to set 1.
        assert [c.fill(x) for x in (1, 5, 9)] == [-1, -1, -1]
        assert c.fill(13) == 1  # LRU goes first
        assert c.probe(5)  # 5 becomes MRU; 9 is now LRU
        assert c.fill(17) == 9
        assert c.fill(5) == -1  # present: no eviction, no reorder
        assert c.fill(1) == 13
        assert [x for x in (1, 5, 9, 13, 17) if c.contains(x)] == [1, 5, 17]
        assert c.occupancy() == 3


class TestBanking:
    def test_same_bank_same_cycle_conflicts(self):
        c = tiny_cache(banks=2)
        assert not c.bank_conflict(0, cycle=10)
        assert c.bank_conflict(2, cycle=10)  # line 2 -> bank 0 again
        assert not c.bank_conflict(2, cycle=11)  # the bank frees next cycle

    def test_different_banks_no_conflict(self):
        c = tiny_cache(banks=2)
        assert not c.bank_conflict(0, cycle=10)
        assert not c.bank_conflict(1, cycle=10)

    def test_new_cycle_resets(self):
        c = tiny_cache(banks=2)
        c.bank_conflict(0, cycle=10)
        assert not c.bank_conflict(0, cycle=11)


class _RefLRU:
    """Reference model: per-set ordered list, textbook LRU."""

    def __init__(self, sets: int, assoc: int) -> None:
        self.sets = [[] for _ in range(sets)]
        self.assoc = assoc
        self.mask = sets - 1

    def access(self, line: int) -> bool:
        s = self.sets[line & self.mask]
        hit = line in s
        if hit:
            s.remove(line)
        elif len(s) >= self.assoc:
            s.pop(0)
        s.append(line)
        return hit


class TestLRUProperty:
    @pytest.mark.parametrize("assoc", [1, 2, 3, 4])
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
    def test_matches_reference_model(self, assoc, lines):
        c = tiny_cache(assoc=assoc, sets=8)
        ref = _RefLRU(8, assoc)
        for line in lines:
            got = c.probe(line)
            if not got:
                c.fill(line)
            expected = ref.access(line)
            assert got == expected, f"divergence at line {line}"
            # The flat layout: the set's ways MRU first, empty ways last.
            ways = ref.sets[line & ref.mask][::-1]
            base = (line & ref.mask) * assoc
            assert c._tags[base : base + assoc] == ways + [-1] * (assoc - len(ways))
        assert c.occupancy() == sum(len(s) for s in ref.sets)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200))
    def test_occupancy_bounded(self, lines):
        c = tiny_cache(assoc=2, sets=4)
        for line in lines:
            if not c.probe(line):
                c.fill(line)
        assert c.occupancy() <= 8

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=2, max_size=100))
    def test_immediate_refetch_hits(self, lines):
        c = tiny_cache(assoc=2, sets=8)
        for line in lines:
            if not c.probe(line):
                c.fill(line)
            assert c.probe(line)
