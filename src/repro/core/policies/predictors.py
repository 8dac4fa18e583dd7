"""Miss predictors used by the predictive policies (PDG, DC-PRED).

PC-indexed tables of 2-bit saturating counters trained on actual outcomes:
the structure [3] and [7] describe. Prediction quality is intentionally
imperfect — the paper's whole argument against predictive policies is their
mispredictions (unnecessary stalls) and their load serialization.
"""

from __future__ import annotations

__all__ = ["MissPredictor"]

_PREDICT_THRESHOLD = 2
_MAX = 3


class MissPredictor:
    """2-bit-counter cache-miss predictor, indexed by load PC."""

    __slots__ = ("_table", "_mask")

    def __init__(self, entries: int = 4096) -> None:
        if entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        self._table = bytearray(entries)  # init 0: strongly predict hit
        self._mask = entries - 1

    def predict(self, pc: int) -> bool:
        """True = predicted to miss."""
        return self._table[(pc >> 2) & self._mask] >= _PREDICT_THRESHOLD

    def train(self, pc: int, missed: bool) -> None:
        """Update the 2-bit counter for ``pc`` with the actual outcome."""
        idx = (pc >> 2) & self._mask
        ctr = self._table[idx]
        if missed:
            if ctr < _MAX:
                self._table[idx] = ctr + 1
        else:
            if ctr > 0:
                self._table[idx] = ctr - 1
