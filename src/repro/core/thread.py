"""Per-hardware-context state: trace cursor, front end, ROB, rename map.

The thread context is pure state; all behaviour lives in the simulator. The
trace cursor is an *absolute* monotone position (``cursor % len(trace)``
indexes the trace), so squash recovery is a simple cursor rollback even
across trace wrap-arounds.
"""

from __future__ import annotations

from collections import deque

from repro.isa.registers import NUM_ARCH_REGS
from repro.trace.synthetic import SyntheticTrace
from repro.trace.wrongpath import WrongPathSupplier

__all__ = ["ThreadContext"]


class ThreadContext:
    """All per-thread microarchitectural state."""

    __slots__ = (
        "tid",
        "trace",
        "wp_supplier",
        # program position
        "cursor",          # absolute index of the next correct-path instr
        "wrongpath",       # fetching down a mispredicted path
        "wp_pc",           # next wrong-path PC
        "fetch_ready_cycle",  # icache miss / misfetch bubble / redirect stall
        # pipeline structures (the decode/rename pipe itself is SHARED and
        # lives in the simulator: instructions rename in fetch order)
        "pipe_count",      # this thread's instructions in the shared pipe
        "rob",             # deque[DynInstr]: dispatched, not yet committed
        "renmap",          # arch reg -> producing DynInstr (or None = ready)
        # counters
        "icount",          # instructions in pre-issue stages (ICOUNT policy)
        "dmiss",           # in-flight L1 data misses (DWarn's counter, §3)
        "brcount",         # unresolved (fetched, not completed) branches —
                           # maintained incrementally by the simulator so
                           # BRCOUNT never rescans the pipe/ROB per cycle
        "seq_next",        # per-thread program-order sequence numbers
    )

    def __init__(self, tid: int, trace: SyntheticTrace, wp_supplier: WrongPathSupplier) -> None:
        self.tid = tid
        self.trace = trace
        self.wp_supplier = wp_supplier
        self.cursor = 0
        self.wrongpath = False
        self.wp_pc = 0
        self.fetch_ready_cycle = 0
        self.pipe_count = 0
        self.rob: deque = deque()
        self.renmap: list = [None] * NUM_ARCH_REGS
        self.icount = 0
        self.dmiss = 0
        self.brcount = 0
        self.seq_next = 0

    @property
    def inflight(self) -> int:
        """Instructions anywhere in the pipeline (frontend pipe + ROB)."""
        return self.pipe_count + len(self.rob)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ThreadContext t{self.tid} {self.trace.profile.name} "
            f"cursor={self.cursor} icount={self.icount} dmiss={self.dmiss} "
            f"pipe={self.pipe_count} rob={len(self.rob)}>"
        )
