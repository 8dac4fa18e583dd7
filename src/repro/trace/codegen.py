"""Synthetic basic-block CFG.

Gives the trace a real *code* structure: every instruction has a PC inside a
laid-out code region (so the I-cache and BTB/gshare/RAS see realistic
streams), blocks end in branches with per-branch biases (so prediction
accuracy is learnable, not dictated), and call/return pairs follow a stack
discipline (so the RAS works).

The CFG fixes block lengths, PCs and branch behaviour statically. Body
instruction *classes and operands* are drawn dynamically during the trace
walk (synthetic.py): hot loops dominate execution exactly as in real code,
and drawing the mix per dynamic instruction keeps the trace-wide instruction
mix on the profile's target instead of amplifying whichever template the hot
loop landed on.

Conditional taken-targets are short backward jumps (loop structure);
jumps/calls/returns transfer far (function structure).
"""

from __future__ import annotations

from repro.isa.opcodes import BranchKind
from repro.trace.profiles import BenchmarkProfile
from repro.utils.rng import SplitMix64

__all__ = ["BasicBlock", "CodeLayout", "INSTR_BYTES"]

INSTR_BYTES = 4

# Terminal-branch kind distribution (cumulative): cond, jump, call, ret.
_P_COND = 0.78
_P_JUMP = 0.86
_P_CALL = 0.93
# remainder: ret


class BasicBlock:
    """One static basic block: a body length plus a terminal branch."""

    __slots__ = ("index", "pc", "body_len", "brkind", "bias", "taken_index")

    def __init__(
        self,
        index: int,
        pc: int,
        body_len: int,
        brkind: int,
        bias: float,
        taken_index: int,
    ) -> None:
        self.index = index
        self.pc = pc
        self.body_len = body_len
        self.brkind = brkind
        self.bias = bias          # P(taken) for COND; unused otherwise
        self.taken_index = taken_index  # target block for COND/JUMP/CALL

    @property
    def num_instrs(self) -> int:
        return self.body_len + 1  # + terminal branch

    @property
    def branch_pc(self) -> int:
        return self.pc + self.body_len * INSTR_BYTES

    @property
    def fallthrough_pc(self) -> int:
        return self.pc + self.num_instrs * INSTR_BYTES


class CodeLayout:
    """The full synthetic program: blocks laid out sequentially in PC space."""

    __slots__ = ("profile", "code_base", "blocks", "footprint_bytes")

    def __init__(self, profile: BenchmarkProfile, code_base: int, seed: int) -> None:
        self.profile = profile
        self.code_base = code_base
        rng = SplitMix64(seed)
        self.blocks: list[BasicBlock] = []
        self._build(rng)
        last = self.blocks[-1]
        self.footprint_bytes = (last.pc + last.num_instrs * INSTR_BYTES) - code_base

    # ------------------------------------------------------------------

    def _build(self, rng: SplitMix64) -> None:
        p = self.profile
        n = p.n_blocks

        # Average body length so that 1 branch per block yields branch_frac:
        # branch_frac = 1 / (body + 1) -> body = 1/branch_frac - 1. Block
        # sizes are then drawn uniformly around that mean within [min, max].
        mean_body = max(1.0, 1.0 / p.branch_frac - 1.0)
        lo = max(1, int(mean_body) - (p.block_max - p.block_min) // 2)
        hi = max(lo + 1, int(mean_body) + (p.block_max - p.block_min + 1) // 2)

        pc = self.code_base
        for bi in range(n):
            body_len = lo + rng.next_below(hi - lo + 1)

            u = rng.next_float()
            if u < _P_COND:
                brkind = BranchKind.COND
                bias = (
                    p.strong_bias if rng.next_float() < 0.5 else 1.0 - p.strong_bias
                ) if rng.next_float() < p.strong_bias_frac else 0.25 + 0.5 * rng.next_float()
                # Short backward jump: loops over the last few blocks.
                delta = 1 + rng.next_below(8)
                taken_index = (bi - delta) % n
            elif u < _P_JUMP:
                brkind, bias = BranchKind.JUMP, 1.0
                taken_index = rng.next_below(n)
            elif u < _P_CALL:
                brkind, bias = BranchKind.CALL, 1.0
                taken_index = rng.next_below(n)
                if taken_index == bi:
                    taken_index = (bi + 1) % n
            else:
                brkind, bias = BranchKind.RET, 1.0
                taken_index = rng.next_below(n)  # fallback target if stack empty

            self.blocks.append(
                BasicBlock(bi, pc, body_len, int(brkind), bias, taken_index)
            )
            pc += (body_len + 1) * INSTR_BYTES

        # The last block must end in an unconditional jump back to block 0:
        # a not-taken fallthrough there would continue at the sequential PC
        # while the walk wraps to the first block, breaking the trace's
        # successor invariant (record i+1 is the successor of record i).
        last = self.blocks[-1]
        last.brkind = int(BranchKind.JUMP)
        last.bias = 1.0
        last.taken_index = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    def fallthrough_block(self, index: int) -> int:
        """Layout-order successor (wraps at the end of the program)."""
        return (index + 1) % len(self.blocks)
