"""Tests for the memory hierarchy: latencies, MSHR merging, TLB, stats.

``load_access``/``store_access`` return
``(latency, fill_cycle, l1_miss, l2_miss, tlb_miss, merged)``.
"""

from __future__ import annotations

from repro.config.memory import MemoryConfig, TLBConfig
from repro.mem import MemoryHierarchy, TLB


def make_hier(n=1) -> MemoryHierarchy:
    return MemoryHierarchy(MemoryConfig(), n)


# Addresses on distinct pages to exercise the TLB independently of caches.
A = 0x10000
B = 0x20000


class TestLoadTiming:
    def test_l1_hit_latency(self):
        h = make_hier()
        h.load_access(0, A, 0)          # cold: install line + page
        lat, _, l1m, _, _, _ = h.load_access(0, A, 400)  # hot (past the fill cycle)
        assert lat == 1
        assert not l1m

    def test_l2_hit_latency(self):
        h = make_hier()
        h.load_access(0, A, 0)  # in L1 + L2 now
        # Evict from L1 by filling two conflicting lines (same set, 2-way).
        conflict1 = A + 512 * 64
        conflict2 = A + 2 * 512 * 64
        h.load_access(0, conflict1, 200)
        h.load_access(0, conflict2, 400)
        lat, _, l1m, l2m, _, _ = h.load_access(0, A, 600)
        assert l1m and not l2m
        assert lat == 11  # 1 (L1) + 10 (L2)

    def test_memory_latency(self):
        h = make_hier()
        lat, _, l1m, l2m, tlbm, _ = h.load_access(0, A, 0)
        assert l1m and l2m
        # 1 + 10 + 100 (+160 TLB miss on first touch of the page)
        assert lat == 111 + 160
        assert tlbm

    def test_fill_cycle_reported(self):
        h = make_hier()
        h.load_access(0, B, 0)  # warm the page
        lat, fill, _, _, _, _ = h.load_access(0, A + (1 << 25), 50)
        assert fill == 50 + lat


class TestMSHRMerging:
    def test_second_access_merges(self):
        h = make_hier()
        h.load_access(0, B, 0)
        _, fill1, _, l2m1, _, merged1 = h.load_access(0, A, 100)  # miss, fill at 100+lat
        lat2, fill2, l1m2, l2m2, _, merged2 = h.load_access(0, A + 8, 110)  # still outstanding
        assert not merged1 and merged2
        assert l1m2
        assert l2m2 == l2m1
        assert fill2 == fill1
        assert lat2 == fill1 - 110

    def test_access_after_fill_hits(self):
        h = make_hier()
        fill = h.load_access(0, A, 0)[1]
        assert not h.load_access(0, A, fill + 1)[2]

    def test_fill_arrived_cleans_outstanding(self):
        h = make_hier()
        fill = h.load_access(0, A, 0)[1]
        line = A >> h.line_shift
        assert line in h._outstanding_d
        h.fill_arrived(line)
        assert line not in h._outstanding_d
        # And the tag array still holds the line.
        assert not h.load_access(0, A, fill + 5)[2]


class TestStores:
    def test_store_allocates_line_for_later_load(self):
        h = make_hier()
        _, fill, l1m, _, _, _ = h.store_access(A, 0)
        assert l1m
        assert not h.load_access(0, A, fill + 1)[2]

    def test_store_stats_separate(self):
        h = make_hier()
        assert h.store_access(A, 0)[2]  # an L1 miss the load counters never see
        assert h.loads[0] == 0
        assert h.load_l1_misses[0] == 0


class TestIFetch:
    """``ifetch_ready`` returns ``cycle`` on a hit and the fill's ready
    cycle, later than ``cycle``, on a miss."""

    def test_miss_then_ready(self):
        h = make_hier()
        pc = 0x5000_0000
        ready = h.ifetch_ready(0, pc, 0)
        assert ready == 0 + 1 + 10 + 100  # a miss: icache + L2 + memory
        # Before the fill: still a miss with the same ready cycle.
        assert h.ifetch_ready(0, pc, ready - 5) == ready
        # After the fill: hit.
        cycle = ready
        assert h.ifetch_ready(0, pc, cycle) == cycle

    def test_l2_hit_path(self):
        h = make_hier()
        pc = 0x5000_0000
        ready = h.ifetch_ready(0, pc, 0)
        # Evict from icache (2-way, 512 sets) but not from L2.
        h.ifetch_ready(0, pc + 512 * 64, ready + 1)
        h.ifetch_ready(0, pc + 2 * 512 * 64, ready + 200)
        cycle = ready + 400
        assert h.ifetch_ready(0, pc, cycle) == cycle + 1 + 10  # a miss that hits in L2

    def test_ifetch_miss_stat(self):
        """A miss reserves the line at miss time and records its fill."""
        h = make_hier()
        ready = h.ifetch_ready(0, 0x6000_0000, 0)
        line = 0x6000_0000 >> h.line_shift
        assert ready > 0
        assert h.icache.contains(line) and h.l2.contains(line)
        assert h._outstanding_i == {line: ready}


class TestTLB:
    def test_miss_once_per_page(self):
        t = TLB(TLBConfig())
        assert not t.access(0x0)
        assert t.access(0x100)          # same 8KB page
        assert not t.access(0x4000)     # next page

    def test_lru_within_set(self):
        t = TLB(TLBConfig(entries=4, assoc=2, page_bytes=8192))
        # pages 0, 2, 4 map to set 0 (2 sets).
        t.access(0 * 8192)
        t.access(2 * 8192)
        t.access(4 * 8192)  # evicts page 0
        assert not t.access(0 * 8192)

    def test_tlb_penalty_in_load(self):
        h = make_hier()
        assert h.load_access(0, A, 0)[4]
        assert not h.load_access(0, A + 64, 500)[4]  # same page


class TestPerThreadStats:
    def test_threads_tracked_independently(self):
        h = make_hier(2)
        h.load_access(0, A, 0)
        h.load_access(1, B + (1 << 30), 0)
        h.load_access(1, B + (1 << 30), 300)
        assert h.loads == [1, 2]
        assert h.load_l1_misses == [1, 1]

    def test_count_stats_false_skips_counting(self):
        h = make_hier()
        h.load_access(0, A, 0, count_stats=False)
        assert h.loads[0] == 0

    def test_snapshot_copies(self):
        h = make_hier()
        h.load_access(0, A, 0)
        snap = h.snapshot()
        h.load_access(0, B, 300)
        assert snap["loads"][0] == 1
        assert h.loads[0] == 2
