"""Property test: the timed hierarchy agrees with a timing-free reference.

The reference model is two textbook LRU caches with no MSHRs and no timing:
after every outstanding fill has landed, the timed hierarchy's *presence*
behaviour (would this access hit L1 / L2?) must be identical to the
reference's, for any access sequence. This pins the subtle interactions —
reserve-at-probe, lazy outstanding cleanup, write-allocate stores — to the
simple semantics they are meant to implement.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config.memory import MemoryConfig
from repro.mem import MemoryHierarchy


class _RefCache:
    def __init__(self, sets: int, assoc: int) -> None:
        self.sets = [[] for _ in range(sets)]
        self.mask = sets - 1
        self.assoc = assoc

    def access(self, line: int) -> bool:
        s = self.sets[line & self.mask]
        hit = line in s
        if hit:
            s.remove(line)
        elif len(s) >= self.assoc:
            s.pop(0)
        s.append(line)
        return hit


class _RefHierarchy:
    """L1 + L2, both accessed on every reference, no timing."""

    def __init__(self, mem: MemoryConfig) -> None:
        self.l1 = _RefCache(mem.dcache.num_sets, mem.dcache.assoc)
        self.l2 = _RefCache(mem.l2.num_sets, mem.l2.assoc)

    def access(self, line: int) -> tuple[bool, bool]:
        l1_hit = self.l1.access(line)
        if l1_hit:
            return True, True
        l2_hit = self.l2.access(line)
        return False, l2_hit


# Lines drawn from a few sets so evictions actually happen.
LINE = st.integers(min_value=0, max_value=3 * 512 + 7)
ACCESS = st.tuples(st.booleans(), LINE)  # (is_store, line)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ACCESS, min_size=1, max_size=150))
def test_hierarchy_matches_reference_when_fills_settle(accesses):
    mem = MemoryConfig()
    hier = MemoryHierarchy(mem, 1)
    ref = _RefHierarchy(mem)

    cycle = 0
    for is_store, line in accesses:
        addr = line << hier.line_shift
        expect_l1, expect_l2 = ref.access(line)
        if is_store:
            _, fill, l1m, l2m, _, _ = hier.store_access(addr, cycle)
        else:
            _, fill, l1m, l2m, _, _ = hier.load_access(0, addr, cycle)
        assert l1m == (not expect_l1), f"L1 divergence at line {line}"
        if l1m:
            assert l2m == (not expect_l2), f"L2 divergence at line {line}"
        # Let every fill land before the next access ("settled" regime): the
        # timed model's extra states (outstanding fills) must be invisible.
        cycle = fill + 1


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(LINE, min_size=2, max_size=80))
def test_merged_misses_share_primary_outcome(lines):
    """Back-to-back accesses (no settling): a secondary miss to an
    outstanding line must report the primary's L2 classification and the
    same fill cycle."""
    mem = MemoryConfig()
    hier = MemoryHierarchy(mem, 1)
    outstanding: dict[int, tuple[int, bool]] = {}
    cycle = 0
    for line in lines:
        addr = line << hier.line_shift
        _, fill, l1m, l2m, _, merged = hier.load_access(0, addr, cycle)
        if merged:
            assert (fill, l2m) == outstanding[line]
        elif l1m:
            outstanding[line] = (fill, l2m)
        cycle += 1  # dense accesses: fills stay in flight
