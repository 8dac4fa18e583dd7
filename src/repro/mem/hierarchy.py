"""Two-level memory hierarchy with MSHR merging and per-thread statistics.

Timing model (baseline values from Table 3):

- L1 data/instruction caches: ``dcache.latency`` (1 cycle) on a hit.
- L1 miss -> L2 access adds ``l2.latency`` (10 cycles).
- L2 miss -> main memory adds ``memory_latency`` (100 cycles).
- D-TLB miss adds ``dtlb.miss_penalty`` (160 cycles) to the load.

Lines are *reserved* in the tag arrays at miss time and an outstanding-fill
entry records when the data actually arrives; accesses to a line whose fill
is still in flight merge with it (secondary misses). The pipeline is told the
fill cycle so it can schedule completion, policy callbacks (DWarn's counter
decrement) and the STALL/FLUSH "declared L2 miss" events.
"""

from __future__ import annotations

from repro.config.memory import MemoryConfig
from repro.mem.cache import Cache
from repro.mem.tlb import TLB

__all__ = ["LoadResult", "MemoryHierarchy"]


class LoadResult:
    """Timing and classification of one data-cache access."""

    __slots__ = ("latency", "fill_cycle", "l1_miss", "l2_miss", "tlb_miss", "merged")

    def __init__(
        self,
        latency: int,
        fill_cycle: int,
        l1_miss: bool,
        l2_miss: bool,
        tlb_miss: bool,
        merged: bool,
    ) -> None:
        self.latency = latency
        self.fill_cycle = fill_cycle
        self.l1_miss = l1_miss
        self.l2_miss = l2_miss
        self.tlb_miss = tlb_miss
        self.merged = merged

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LoadResult(lat={self.latency}, l1_miss={self.l1_miss}, "
            f"l2_miss={self.l2_miss}, tlb={self.tlb_miss}, merged={self.merged})"
        )


class MemoryHierarchy:
    """Shared L1I/L1D/L2/memory + D-TLB for all hardware contexts."""

    __slots__ = (
        "cfg",
        "icache",
        "dcache",
        "l2",
        "dtlb",
        "line_shift",
        "_outstanding_d",   # line_addr -> (fill_cycle, was_l2_miss)
        "_outstanding_i",
        # per-thread statistics (index = tid)
        "loads",
        "load_l1_misses",
        "load_l2_misses",
        "stores",
        "store_l1_misses",
        "ifetch_misses",
        "tlb_misses",
    )

    def __init__(self, cfg: MemoryConfig, num_contexts: int) -> None:
        cfg.validate()
        self.cfg = cfg
        self.icache = Cache(cfg.icache)
        self.dcache = Cache(cfg.dcache)
        self.l2 = Cache(cfg.l2)
        self.dtlb = TLB(cfg.dtlb)
        self.line_shift = cfg.dcache.line_bytes.bit_length() - 1
        self._outstanding_d: dict[int, tuple[int, bool]] = {}
        self._outstanding_i: dict[int, int] = {}
        self.loads = [0] * num_contexts
        self.load_l1_misses = [0] * num_contexts
        self.load_l2_misses = [0] * num_contexts
        self.stores = [0] * num_contexts
        self.store_l1_misses = [0] * num_contexts
        self.ifetch_misses = [0] * num_contexts
        self.tlb_misses = [0] * num_contexts

    # ------------------------------------------------------------------ data

    def load_access(self, tid: int, addr: int, cycle: int, count_stats: bool = True) -> LoadResult:
        """Access the data side for a load issued at ``cycle``."""
        cfg = self.cfg
        line = addr >> self.line_shift
        if count_stats:
            self.loads[tid] += 1

        latency = cfg.dcache.latency
        # One access per bank per cycle; a conflict costs one retry cycle.
        if self.dcache.bank_conflict(line, cycle):
            latency += 1

        tlb_miss = not self.dtlb.access(addr)
        if tlb_miss:
            latency += cfg.dtlb.miss_penalty
            if count_stats:
                self.tlb_misses[tid] += 1

        outstanding = self._outstanding_d.get(line)
        if outstanding is not None:
            fill_cycle, was_l2 = outstanding
            if fill_cycle > cycle + cfg.dcache.latency:
                # Secondary miss: merge with the in-flight fill.
                if count_stats:
                    self.load_l1_misses[tid] += 1
                    if was_l2:
                        self.load_l2_misses[tid] += 1
                lat = max(latency, fill_cycle - cycle)
                return LoadResult(lat, fill_cycle, True, was_l2, tlb_miss, True)
            del self._outstanding_d[line]  # fill already arrived; stale entry

        if self.dcache.probe(line):
            return LoadResult(latency, cycle + latency, False, False, tlb_miss, False)

        # L1 miss: go to L2.
        if count_stats:
            self.load_l1_misses[tid] += 1
        latency += cfg.l2.latency
        l2_hit = self.l2.probe(line)
        if not l2_hit:
            latency += cfg.memory_latency
            if count_stats:
                self.load_l2_misses[tid] += 1
            self.l2.fill(line)
        self.dcache.fill(line)
        fill_cycle = cycle + latency
        self._outstanding_d[line] = (fill_cycle, not l2_hit)
        return LoadResult(latency, fill_cycle, True, not l2_hit, tlb_miss, False)

    def store_access(self, tid: int, addr: int, cycle: int, count_stats: bool = True) -> LoadResult:
        """Write-allocate store access. Stores never block commit in this
        model (the store buffer hides their latency) but they do move lines
        and occupy fills, which later loads observe."""
        cfg = self.cfg
        line = addr >> self.line_shift
        if count_stats:
            self.stores[tid] += 1

        tlb_miss = not self.dtlb.access(addr)
        if tlb_miss and count_stats:
            self.tlb_misses[tid] += 1

        outstanding = self._outstanding_d.get(line)
        if outstanding is not None:
            fill_cycle, was_l2 = outstanding
            if fill_cycle > cycle:
                if count_stats:
                    self.store_l1_misses[tid] += 1
                return LoadResult(cfg.dcache.latency, fill_cycle, True, was_l2, tlb_miss, True)
            del self._outstanding_d[line]

        if self.dcache.probe(line):
            return LoadResult(
                cfg.dcache.latency, cycle + cfg.dcache.latency, False, False, tlb_miss, False
            )

        if count_stats:
            self.store_l1_misses[tid] += 1
        latency = cfg.dcache.latency + cfg.l2.latency
        l2_hit = self.l2.probe(line)
        if not l2_hit:
            latency += cfg.memory_latency
            self.l2.fill(line)
        self.dcache.fill(line)
        fill_cycle = cycle + latency
        self._outstanding_d[line] = (fill_cycle, not l2_hit)
        return LoadResult(latency, fill_cycle, True, not l2_hit, tlb_miss, False)

    def fill_arrived(self, line_addr: int) -> None:
        """Drop the outstanding-fill entry once the pipeline's fill event has
        fired (keeps the dict from growing over long runs)."""
        self._outstanding_d.pop(line_addr, None)

    # ----------------------------------------------------------------- ifetch

    def ifetch_ready(self, tid: int, pc: int, cycle: int) -> int:
        """Instruction-cache probe for the line holding ``pc``: the cycle
        fetch can proceed — equal to ``cycle`` on a hit, later on a miss,
        and the thread cannot fetch before it. Returning a bare int keeps
        the per-cycle fetch loop free of tuple allocation (one call per
        offered thread per cycle)."""
        line = pc >> self.line_shift
        outstanding = self._outstanding_i
        ready = outstanding.get(line)
        if ready is not None:
            if ready > cycle:
                return ready
            del outstanding[line]
        if self.icache.probe(line):
            return cycle
        self.ifetch_misses[tid] += 1
        cfg = self.cfg
        latency = cfg.icache.latency + cfg.l2.latency
        if not self.l2.probe(line):
            latency += cfg.memory_latency
            self.l2.fill(line)
        self.icache.fill(line)
        ready = cycle + latency
        outstanding[line] = ready
        return ready

    # ------------------------------------------------------------------ stats

    def load_miss_rates(self, tid: int) -> tuple[float, float, float]:
        """(L1 load miss rate, L2 load miss rate, L1->L2 ratio) for a thread,
        as percentages-of-dynamic-loads like the paper's Table 2(a)."""
        loads = self.loads[tid]
        if not loads:
            return 0.0, 0.0, 0.0
        l1 = self.load_l1_misses[tid] / loads
        l2 = self.load_l2_misses[tid] / loads
        ratio = (
            self.load_l2_misses[tid] / self.load_l1_misses[tid]
            if self.load_l1_misses[tid]
            else 0.0
        )
        return l1, l2, ratio

    def snapshot(self) -> dict[str, list[int]]:
        """Copy of the per-thread counters (window-delta support)."""
        return {
            "loads": list(self.loads),
            "load_l1_misses": list(self.load_l1_misses),
            "load_l2_misses": list(self.load_l2_misses),
            "stores": list(self.stores),
            "store_l1_misses": list(self.store_l1_misses),
            "ifetch_misses": list(self.ifetch_misses),
            "tlb_misses": list(self.tlb_misses),
        }
