"""The combined front-end predictor used by the fetch unit.

Glues gshare (direction), BTB (target) and RAS (returns) together and exposes
one ``predict`` call per fetched branch plus squash/train hooks. All state
that must survive squashes is snapshotted into the branch's DynInstr by the
fetch unit (history register, RAS TOS).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.branch.btb import BTB
from repro.branch.gshare import GShare
from repro.branch.ras import ReturnAddressStack
from repro.config.processor import BranchPredictorConfig
from repro.isa.opcodes import BranchKind

__all__ = ["FrontEndPredictor", "Prediction"]


class Prediction(NamedTuple):
    """Outcome of predicting one fetched branch.

    ``taken``/``target`` drive the next fetch PC. ``btb_miss`` is True when
    the branch is predicted taken but the BTB holds no target: the fetch unit
    then inserts a misfetch bubble and continues on the *computed* target next
    cycle (decode-stage target computation), which is a fetch-bandwidth loss
    but not a full misprediction.

    A NamedTuple (not a dataclass): one ``Prediction`` is allocated per
    fetched branch, and tuple construction happens in C with no
    ``__init__`` frame.
    """

    taken: bool
    target: int
    btb_miss: bool
    hist_snapshot: int
    ras_snapshot: int


class FrontEndPredictor:
    """Per-machine predictor bundle; RAS replicated per context."""

    __slots__ = ("gshare", "btb", "ras")

    def __init__(self, cfg: BranchPredictorConfig, num_contexts: int) -> None:
        self.gshare = GShare(cfg.gshare_entries, num_contexts, cfg.history_bits)
        self.btb = BTB(cfg.btb_entries, cfg.btb_assoc)
        self.ras = [ReturnAddressStack(cfg.ras_entries) for _ in range(num_contexts)]

    def predict(self, tid: int, pc: int, brkind: int, fallthrough_pc: int) -> Prediction:
        """Predict one fetched branch and speculatively update front-end state."""
        hist = self.gshare.history(tid)
        ras = self.ras[tid]
        ras_tos = ras.tos

        if brkind == BranchKind.COND:
            taken = self.gshare.predict(tid, pc)
            self.gshare.speculative_update(tid, taken)
            if taken:
                target = self.btb.lookup(pc)
                if target is None:
                    return Prediction(True, 0, True, hist, ras_tos)
                return Prediction(True, target, False, hist, ras_tos)
            return Prediction(False, fallthrough_pc, False, hist, ras_tos)

        if brkind == BranchKind.RET:
            target = ras.pop()
            if target == 0:
                # Empty RAS: fall back to the BTB, else misfetch.
                btb_target = self.btb.lookup(pc)
                if btb_target is None:
                    return Prediction(True, 0, True, hist, ras_tos)
                return Prediction(True, btb_target, False, hist, ras_tos)
            return Prediction(True, target, False, hist, ras_tos)

        # JUMP / CALL: always taken, target from BTB.
        if brkind == BranchKind.CALL:
            ras.push(fallthrough_pc)
        target = self.btb.lookup(pc)
        if target is None:
            return Prediction(True, 0, True, hist, ras_tos)
        return Prediction(True, target, False, hist, ras_tos)

    def train(self, tid: int, pc: int, hist: int, brkind: int, taken: bool, target: int) -> None:
        """Train tables with a resolved (non-squashed) branch."""
        if brkind == BranchKind.COND:
            self.gshare.train(tid, pc, hist, taken)
        if taken:
            self.btb.update(pc, target)

    def squash_recover(
        self, tid: int, hist: int, ras_tos: int, resolved_taken: bool | None
    ) -> None:
        """Restore per-context speculative state after a squash.

        ``resolved_taken`` re-inserts the *correct* outcome of the resolving
        conditional branch into the restored history (None for non-cond
        squash causes such as FLUSH, where the trigger instruction is a load
        and history simply rolls back to the fetch point).
        """
        self.gshare.restore_history(tid, hist)
        if resolved_taken is not None:
            self.gshare.speculative_update(tid, resolved_taken)
        self.ras[tid].restore(ras_tos)
