"""Dynamic instruction record.

A ``DynInstr`` is created once per *fetched* instruction — including wrong-path
instructions and re-fetches after a FLUSH — and threads through every pipeline
stage. It is the single hottest allocation in the simulator, hence
``__slots__`` and plain attributes only: slot reads stay off the instance-dict
path, and the pipeline reads each field many more times than the constructor
writes it (measured — a class-default/lazy-``__dict__`` variant lost the
creation savings back on reads; see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from repro.isa.opcodes import BranchKind, OpClass
from repro.isa.registers import REG_NONE

__all__ = ["DynInstr"]


class DynInstr:
    """One in-flight dynamic instruction.

    Lifecycle::

        fetch -> (frontend: decode/rename latency) -> dispatch -> issue
              -> execute/memory -> complete -> commit

    or squashed at any point before commit (branch mispredict recovery or a
    FLUSH-policy flush). A squashed instruction is never removed from event
    payloads; events check :attr:`squashed` when they fire.
    """

    __slots__ = (
        # identity
        "tid",          # hardware context id
        "seq",          # per-thread monotone sequence number (program order)
        "idx",          # index into the thread's static trace; -1 = wrong path
        # decoded fields (copied from the trace record / wrong-path supplier)
        "op",           # OpClass value (plain int)
        "pc",
        "dest",         # flat arch reg id or REG_NONE
        "src1",
        "src2",
        "addr",         # effective address (loads/stores), 0 otherwise
        "brkind",       # BranchKind value
        "taken",        # actual branch outcome
        "target",       # actual next PC if taken
        # fetch-time prediction state
        "mispredicted",  # direction or target wrong; resolves at complete
        "ghist_snapshot",  # thread branch-history register before this branch
        "ras_snapshot",    # RAS top-of-stack index before this branch
        "wrongpath",    # fetched down a mispredicted path
        # pipeline state
        "fetch_cycle",
        "issue_cycle",
        "dispatched",
        "issued",
        "completed",
        "squashed",
        # dataflow
        "num_wait",     # unready source operands (set at dispatch)
        "dependents",   # list[DynInstr] woken at complete; None until needed
        "prev_writer1", # rename-map entries shadowed by this instr's dest
        # global fetch-order stamp (issue-select age priority across threads)
        "gseq",
        # policy scratch slot (e.g. PDG's per-load counting state)
        "pmeta",
        # memory behaviour (filled at execute)
        "l1_miss",
        "l2_miss",
        "dmiss_counted",  # this load raised the thread's in-flight-miss counter
        "fill_cycle",   # when the cache line arrives (misses only)
    )

    def __init__(
        self,
        tid: int,
        seq: int,
        idx: int,
        op: int,
        pc: int,
        dest: int = REG_NONE,
        src1: int = REG_NONE,
        src2: int = REG_NONE,
        addr: int = 0,
        brkind: int = BranchKind.NONE,
        taken: bool = False,
        target: int = 0,
    ) -> None:
        self.tid = tid
        self.seq = seq
        self.idx = idx
        self.op = op
        self.pc = pc
        self.dest = dest
        self.src1 = src1
        self.src2 = src2
        self.addr = addr
        self.brkind = brkind
        self.taken = taken
        self.target = target

        self.mispredicted = False
        self.ghist_snapshot = 0
        self.ras_snapshot = 0
        self.wrongpath = False

        self.fetch_cycle = -1
        self.issue_cycle = -1
        self.dispatched = False
        self.issued = False
        self.completed = False
        self.squashed = False

        self.gseq = 0
        self.pmeta = None

        self.num_wait = 0
        # Most instructions never acquire waiters; the list is allocated on
        # first use at dispatch and dropped again at complete.
        self.dependents: list[DynInstr] | None = None
        self.prev_writer1 = None

        self.l1_miss = False
        self.l2_miss = False
        self.dmiss_counted = False
        self.fill_cycle = -1

    def __lt__(self, other: "DynInstr") -> bool:
        """Global fetch-order (age) comparison.

        The issue-ready heaps hold ``(gseq, instr)`` tuples so ordering is
        resolved on the int key at C speed; ``gseq`` is unique per simulation,
        so this fallback never actually fires on the hot path.
        """
        return self.gseq < other.gseq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f
            for f, on in (
                ("D", self.dispatched),
                ("I", self.issued),
                ("C", self.completed),
                ("X", self.squashed),
                ("W", self.wrongpath),
            )
            if on
        )
        return (
            f"<DynInstr t{self.tid}#{self.seq} {OpClass(self.op).name}"
            f" pc={self.pc:#x} idx={self.idx} [{flags}]>"
        )
