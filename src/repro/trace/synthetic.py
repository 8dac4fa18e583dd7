"""The synthetic trace generator: a dynamic walk over the CFG.

A trace is the *correct-path* dynamic instruction sequence of one thread,
stored once: ``SyntheticTrace.cols`` is a tuple of nine columns, one per
``RECORD_FIELDS`` entry (``DynInstr`` argument order), each exactly
``length`` long, so record ``i`` is ``col[i]`` of every column and the hot
fetch loop reads each field with one index. The six small fields (``op``,
``dest``, ``src1``, ``src2``, ``brkind``, ``taken``) are ``array('b')``
columns, one byte a record, the typecode the DWIT file stores them with;
``pc``, ``addr`` and ``target`` are lists of ints, three slots (24 bytes) a
record. Each distinct PC, address and branch target is a single shared
``int`` (one intern table per trace): a trace has a few thousand distinct
values but tens of thousands of records. Index ``i+1`` is always the
architectural successor of index ``i``; the final record is patched into
an unconditional jump back to index 0 so traces wrap seamlessly when a
simulated thread outruns its trace.

The code layout the walk follows is not kept: a trace holds only the code
range the simulator pre-warms (``code_base`` and ``code_bytes``).

Traces are memoized per (profile, length, seed, base, instance): sweeping
6 policies over the same workload pays generation cost once.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.isa.opcodes import BranchKind, OpClass
from repro.isa.registers import REG_NONE
from repro.trace.address_space import CODE_OFFSET, LINE_BYTES, AddressSpace, set_stagger
from repro.trace.codegen import INSTR_BYTES, CodeLayout
from repro.trace.profiles import BenchmarkProfile
from repro.utils.rng import derive_seed, float_threshold, splitmix64_stream

if TYPE_CHECKING:
    from repro.trace.artifact import TraceArtifactCache

__all__ = [
    "RECORD_FIELDS",
    "SyntheticTrace",
    "generate_trace",
    "memoized_trace",
    "clear_trace_cache",
    "trace_cache_stats",
]

_MAX_CALL_DEPTH = 64

#: Field names of one trace record, in the column order of
#: ``SyntheticTrace.cols`` (the ``DynInstr`` argument order).
RECORD_FIELDS = ("op", "pc", "dest", "src1", "src2", "addr", "brkind", "taken", "target")

#: One trace record, laid out as ``RECORD_FIELDS``.
Record = tuple[int, int, int, int, int, int, int, int, int]

#: A trace's records as one column per ``RECORD_FIELDS`` entry, in that
#: order: the six small fields as signed bytes, ``pc``, ``addr`` and
#: ``target`` as lists of interned ints.
Columns = tuple[
    "array[int]", list[int], "array[int]", "array[int]", "array[int]",
    list[int], "array[int]", "array[int]", list[int],
]


class SyntheticTrace:
    """Immutable per-thread instruction trace: nine field columns."""

    __slots__ = (
        "profile",
        "length",
        "base",
        "seed",
        "instance",
        "code_base",
        "code_bytes",
        "aspace",
        "cols",
    )

    def __init__(
        self, profile: BenchmarkProfile, length: int, base: int, seed: int, instance: int
    ) -> None:
        layout = self._init_static(profile, length, base, seed, instance)
        # The walk writes lists by index: the interpreter specializes a list
        # store and not an ``array`` one. Preallocated, so it leaves the
        # zeros of the fields a record does not use (no address; not a
        # branch, ``BranchKind.NONE`` being 0), and each column is exactly
        # ``length`` slots.
        cols = [[0] * length for _ in RECORD_FIELDS]
        walk_seed = derive_seed(seed, "walk", profile.name, instance)
        self._walk(layout, splitmix64_stream(walk_seed).__next__, cols)
        op, pc, dest, src1, src2, addr, brkind, taken, target = cols
        self.cols: Columns = (
            array("b", op), pc, array("b", dest), array("b", src1), array("b", src2),
            addr, array("b", brkind), array("b", taken), target,
        )
        self._patch_wrap()

    def _init_static(
        self, profile: BenchmarkProfile, length: int, base: int, seed: int, instance: int
    ) -> CodeLayout:
        """Set every field that is a cheap deterministic function of the key
        (metadata, code range, address space); returns the code layout,
        which the walk follows and the trace does not keep.

        Shared by generation, trace-cache loads and ingestion: the *walk* is
        the only expensive step, so a disk-loaded trace redoes everything
        here and skips only the walk.
        """
        self.profile = profile
        self.length = length
        self.base = base
        self.seed = seed
        self.instance = instance
        code_seed = derive_seed(seed, "code", profile.name, instance)
        addr_seed = derive_seed(seed, "addr", profile.name, instance)
        code_base = base + CODE_OFFSET + set_stagger(base) * LINE_BYTES
        layout = CodeLayout(profile, code_base, code_seed)
        self.code_base = code_base
        self.code_bytes = layout.footprint_bytes
        expected_loads = int(length * profile.load_frac)
        self.aspace = AddressSpace(profile, base, addr_seed, expected_loads=expected_loads)
        return layout

    @classmethod
    def from_arrays(
        cls,
        profile: BenchmarkProfile,
        length: int,
        base: int,
        seed: int,
        instance: int,
        arrays: Mapping[str, Sequence[int]],
    ) -> "SyntheticTrace":
        """Rebuild a trace from persisted parallel arrays, skipping the walk.

        ``arrays`` maps the nine ``RECORD_FIELDS`` names to full-length
        sequences, lists or ``array`` objects (``taken`` as 0/1 ints), and is
        only read: every column is a copy, so patching the trace (as
        :func:`~repro.trace.ingest.materialize` does) never writes through
        to the caller. A decoded ``array('b')`` column copies with one
        memcpy. PCs, addresses and targets go through one intern table, as
        in the walk, so a loaded trace is as compact as a generated one. The
        code range and address space are regenerated from the key — they are
        deterministic and cheap, and the simulator only reads their static
        products (resident-line sets, code footprint), so the result is
        behaviorally identical to a freshly generated trace; the parity
        tests enforce this record by record.
        """
        self = object.__new__(cls)
        self._init_static(profile, length, base, seed, instance)
        table: dict[int, int] = {}
        intern: Callable[[int, int], int] = table.setdefault
        pc, addr, target = arrays["pc"], arrays["addr"], arrays["target"]
        # A map has no length, so list() over-allocates it; the copy is
        # exactly ``length`` slots, as a walked trace's columns are.
        self.cols = (
            array("b", arrays["op"]),
            list(map(intern, pc, pc)).copy(),
            array("b", arrays["dest"]),
            array("b", arrays["src1"]),
            array("b", arrays["src2"]),
            list(map(intern, addr, addr)).copy(),
            array("b", arrays["brkind"]),
            array("b", arrays["taken"]),
            list(map(intern, target, target)).copy(),
        )
        return self

    # ------------------------------------------------------------------

    def _walk(
        self, layout: CodeLayout, draw: Callable[[], int], cols: list[list[int]]
    ) -> None:
        # ``draw()`` is a raw 64-bit SplitMix64 value: ``draw() <
        # float_threshold(p)`` holds exactly when ``next_float() < p`` would,
        # and ``draw() % n`` is ``next_below(n)``. Every trace depends on the
        # order of draws (tests/test_trace.py pins four by hash).
        blocks = layout.blocks
        length = self.length
        profile = self.profile
        aspace = self.aspace

        (op_col, pc_col, dest_col, src1_col, src2_col, addr_col, brkind_col,
         taken_col, target_col) = cols
        # One intern table for PCs, addresses and targets: each distinct
        # value is one int object across the whole trace (a taken target is
        # the next record's PC, so they share it too).
        table: dict[int, int] = {}
        intern: Callable[[int, int], int] = table.setdefault
        # Each block's PCs, branch PC last, interned on the walk's first
        # visit to the block.
        block_pcs: list[tuple[int, ...] | None] = [None] * len(blocks)

        # Body op mix, renormalized with branches excluded (the terminal
        # branch of each block supplies branch_frac; bodies carry the rest).
        non_branch = 1.0 - profile.branch_frac
        cum_load = profile.load_frac / non_branch
        cum_store = cum_load + profile.store_frac / non_branch
        cum_fp = cum_store + profile.fp_frac / non_branch
        t_load = float_threshold(cum_load)
        t_store = float_threshold(cum_store)
        t_fp = float_threshold(cum_fp)
        t_half = float_threshold(0.5)

        op_load = int(OpClass.LOAD)
        op_store = int(OpClass.STORE)
        op_fp = int(OpClass.FP)
        op_int = int(OpClass.INT)
        op_branch = int(OpClass.BRANCH)

        # Dataflow state: sources come from recently-written registers; the
        # window size controls the dependency-chain tightness (ILP).
        recent_dests: list[int] = []
        dep_cap = profile.dep_window
        t_load_use = float_threshold(profile.load_use_frac)
        t_load_indep = float_threshold(profile.load_indep_frac)
        force_src = REG_NONE

        # Duplicate benchmark instances start the walk elsewhere, the
        # analogue of the paper shifting second instances by 1M instructions.
        block = blocks[(self.instance * 7919) % len(blocks)]
        call_stack: list[int] = []  # fall-through *block indices*
        # Per-branch loop countdowns: strongly-biased conditionals behave as
        # loop branches (N majority outcomes, then one minority, with +-1
        # jitter) — the pattern real predictors exploit. I.i.d. outcome draws
        # would make the gshare history pure noise and cap accuracy far below
        # real SPECINT levels.
        cond_state: dict[int, int] = {}

        emitted = 0
        while emitted < length:
            pcs = block_pcs[block.index]
            if pcs is None:
                span = range(block.pc, block.fallthrough_pc, INSTR_BYTES)
                pcs = tuple(map(intern, span, span))
                block_pcs[block.index] = pcs
            for off in range(block.body_len):
                if emitted >= length:
                    return
                u = draw()
                if u < t_load:
                    op = op_load
                elif u < t_store:
                    op = op_store
                elif u < t_fp:
                    op = op_fp
                else:
                    op = op_int

                if op == op_load and draw() < t_load_indep:
                    # Address from a long-lived base register (28..30 are
                    # never destinations): the load is ready at dispatch, so
                    # its miss can overlap earlier misses (MLP).
                    src1 = 28 + draw() % 3
                    if force_src != REG_NONE:
                        force_src = REG_NONE  # consumer folded into the load
                elif force_src != REG_NONE:
                    src1 = force_src
                    force_src = REG_NONE
                elif recent_dests:
                    src1 = recent_dests[draw() % len(recent_dests)]
                else:
                    src1 = draw() % 28
                if op != op_load and recent_dests and draw() < t_half:
                    src2 = recent_dests[draw() % len(recent_dests)]
                else:
                    src2 = REG_NONE

                if op == op_store:
                    dest = REG_NONE
                    addr = aspace.store_address()
                    addr_col[emitted] = intern(addr, addr)
                elif op == op_load:
                    dest = draw() % 28
                    addr = aspace.load_address()
                    addr_col[emitted] = intern(addr, addr)
                elif op == op_fp:
                    dest = 32 + draw() % 28
                else:
                    dest = draw() % 28

                op_col[emitted] = op
                pc_col[emitted] = pcs[off]
                dest_col[emitted] = dest
                src1_col[emitted] = src1
                src2_col[emitted] = src2
                emitted += 1

                if dest != REG_NONE:
                    recent_dests.append(dest)
                    if len(recent_dests) > dep_cap:
                        recent_dests.pop(0)
                if op == op_load and draw() < t_load_use:
                    force_src = dest
            if emitted >= length:
                return

            # Terminal branch of the block.
            brkind = block.brkind
            fall_idx = layout.fallthrough_block(block.index)
            if brkind == BranchKind.COND:
                bias = block.bias
                if 0.25 <= bias <= 0.75:
                    # Genuinely data-dependent branch: unpredictable.
                    taken = draw() < float_threshold(bias)
                else:
                    major_is_taken = bias > 0.5
                    p_major = bias if major_is_taken else 1.0 - bias
                    period = max(1, round(p_major / (1.0 - p_major)))
                    k = cond_state.get(block.index)
                    if k is None:
                        k = period + draw() % 3 - 1
                    if k > 0:
                        cond_state[block.index] = k - 1
                        taken = major_is_taken
                    else:
                        cond_state[block.index] = period + draw() % 3 - 1
                        taken = not major_is_taken
                next_idx = block.taken_index if taken else fall_idx
            elif brkind == BranchKind.JUMP:
                taken, next_idx = True, block.taken_index
            elif brkind == BranchKind.CALL:
                taken, next_idx = True, block.taken_index
                if len(call_stack) < _MAX_CALL_DEPTH:
                    call_stack.append(fall_idx)
            else:  # RET
                taken = True
                if call_stack:
                    next_idx = call_stack.pop()
                else:
                    # Underflowed stack: emit this instance as a plain jump to
                    # the block's static fallback target. Mixing dynamic
                    # (popped) and static targets under one RET pc would
                    # desynchronize the RAS and poison the BTB entry.
                    brkind = BranchKind.JUMP
                    next_idx = block.taken_index

            next_block = blocks[next_idx]
            target = next_block.pc if taken else block.fallthrough_pc
            # Conditional branches read a recently-computed value; calls
            # write the link register (arch reg 31 by convention).
            op_col[emitted] = op_branch
            pc_col[emitted] = pcs[-1]
            dest_col[emitted] = 31 if brkind == BranchKind.CALL else REG_NONE
            src1_col[emitted] = draw() % 28 if brkind == BranchKind.COND else REG_NONE
            src2_col[emitted] = REG_NONE
            brkind_col[emitted] = brkind
            taken_col[emitted] = taken
            target_col[emitted] = intern(target, target)
            emitted += 1
            block = next_block

    def _patch_wrap(self) -> None:
        """Rewrite the final record as a jump to index 0 so the trace wraps."""
        op, pc, dest, src1, src2, addr, brkind, taken, target = self.cols
        op[-1] = int(OpClass.BRANCH)
        dest[-1] = src1[-1] = src2[-1] = REG_NONE
        addr[-1] = 0
        brkind[-1] = int(BranchKind.JUMP)
        taken[-1] = 1
        target[-1] = pc[0]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def record(self, i: int) -> Record:
        """One record, laid out as ``RECORD_FIELDS`` (testing/debugging; the
        simulator indexes ``cols`` directly)."""
        op, pc, dest, src1, src2, addr, brkind, taken, target = self.cols
        return (op[i], pc[i], dest[i], src1[i], src2[i], addr[i], brkind[i], taken[i], target[i])

    def op_counts(self) -> dict[int, int]:
        """Histogram of op classes (calibration checks)."""
        return dict(Counter(self.cols[0]))


#: The in-process trace memo: every trace this process holds, generated,
#: loaded from the trace cache or materialized from an ingested file.
_TRACE_CACHE: dict[tuple[object, ...], SyntheticTrace] = {}
_STATS = {"mem_hits": 0, "generated": 0}


def memoized_trace(
    key: tuple[object, ...], build: Callable[[], SyntheticTrace]
) -> SyntheticTrace:
    """The memoized trace for ``key``, built once by ``build()`` on a miss.

    Six policies over one workload then pay each trace's walk, load or
    materialization once per process.
    """
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = _TRACE_CACHE[key] = build()
    else:
        _STATS["mem_hits"] += 1
    return trace


def generate_trace(
    profile: BenchmarkProfile,
    length: int,
    base: int,
    seed: int,
    instance: int = 0,
    cache: TraceArtifactCache | None = None,
) -> SyntheticTrace:
    """Generate (or fetch from cache) a trace for one benchmark instance.

    ``instance`` distinguishes replicated benchmarks within a workload (the
    paper's boldfaced duplicates): each instance gets a decorrelated walk and
    its own address space base.

    Lookup order: the in-process memo, then ``cache``'s directory when a
    trace cache is given (repeat sweeps and sibling worker processes pay
    the walk zero times), then a fresh walk, which is stored to ``cache``.
    """

    def build() -> SyntheticTrace:
        trace = None if cache is None else cache.load(profile, length, base, seed, instance)
        if trace is None:
            trace = SyntheticTrace(profile, length, base, seed, instance)
            _STATS["generated"] += 1
            if cache is not None:
                cache.store(trace)
        return trace

    return memoized_trace((profile, length, base, seed, instance), build)


def clear_trace_cache() -> None:
    """Drop every memoized trace, ingested ones included (tests use this to
    bound memory; trace-cache files on disk are unaffected)."""
    _TRACE_CACHE.clear()


def trace_cache_stats() -> dict[str, int]:
    """In-process trace-memo counters: memoized traces (generated, loaded or
    ingested), the records they hold (about 31 bytes each for a long trace,
    more for a short one), memo hits, and traces actually generated (walked)
    since interpreter start."""
    return {
        "mem_entries": len(_TRACE_CACHE),
        # list() copies the values atomically: a service job thread may be
        # memoizing a trace while /metrics reads this.
        "mem_records": sum(t.length for t in list(_TRACE_CACHE.values())),
        "mem_hits": _STATS["mem_hits"],
        "generated": _STATS["generated"],
    }
