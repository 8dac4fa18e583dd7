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

:meth:`MemoryHierarchy.load_access` and :meth:`MemoryHierarchy.store_access`
are the data side's only written form: the pipeline's load and store stages
and the Table 2(a) calibration replay all call them.
"""

from __future__ import annotations

from repro.config.memory import MemoryConfig
from repro.mem.cache import Cache
from repro.mem.tlb import TLB

__all__ = ["MemoryHierarchy"]


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

    # ------------------------------------------------------------------ data

    def load_access(
        self, tid: int, addr: int, cycle: int, count_stats: bool = True
    ) -> tuple[int, int, bool, bool, bool, bool]:
        """Access the data side for a load issued at ``cycle``.

        Returns ``(latency, fill_cycle, l1_miss, l2_miss, tlb_miss, merged)``:
        cycles until the data is available, the cycle its line is in L1, the
        miss classification, and whether the access merged with a fill
        already in flight (a secondary miss). A plain tuple, since the
        pipeline makes one call per executed load. ``count_stats=False``
        (wrong-path loads) moves lines and timing but counts nothing in the
        per-thread counters.
        """
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
                return lat, fill_cycle, True, was_l2, tlb_miss, True
            del self._outstanding_d[line]  # fill already arrived; stale entry

        if self.dcache.probe(line):
            return latency, cycle + latency, False, False, tlb_miss, False

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
        return latency, fill_cycle, True, not l2_hit, tlb_miss, False

    def store_access(self, addr: int, cycle: int) -> tuple[int, int, bool, bool, bool, bool]:
        """Write-allocate store access, returning the same tuple as
        :meth:`load_access`. Stores never block commit in this model (the
        store buffer hides their latency), take no bank and count nothing,
        but they do move lines and occupy fills, which later loads observe."""
        cfg = self.cfg
        line = addr >> self.line_shift
        tlb_miss = not self.dtlb.access(addr)

        outstanding = self._outstanding_d.get(line)
        if outstanding is not None:
            fill_cycle, was_l2 = outstanding
            if fill_cycle > cycle:
                return cfg.dcache.latency, fill_cycle, True, was_l2, tlb_miss, True
            del self._outstanding_d[line]

        if self.dcache.probe(line):
            return cfg.dcache.latency, cycle + cfg.dcache.latency, False, False, tlb_miss, False

        latency = cfg.dcache.latency + cfg.l2.latency
        l2_hit = self.l2.probe(line)
        if not l2_hit:
            latency += cfg.memory_latency
            self.l2.fill(line)
        self.dcache.fill(line)
        fill_cycle = cycle + latency
        self._outstanding_d[line] = (fill_cycle, not l2_hit)
        return latency, fill_cycle, True, not l2_hit, tlb_miss, False

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
        offered thread per cycle). ``tid`` is the fetching context; the
        probe and refill do not depend on it."""
        line = pc >> self.line_shift
        outstanding = self._outstanding_i
        ready = outstanding.get(line)
        if ready is not None:
            if ready > cycle:
                return ready
            del outstanding[line]
        if self.icache.probe(line):
            return cycle
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

    def snapshot(self) -> dict[str, list[int]]:
        """Copy of the per-thread counters (window-delta support)."""
        return {
            "loads": list(self.loads),
            "load_l1_misses": list(self.load_l1_misses),
            "load_l2_misses": list(self.load_l2_misses),
        }
