"""gshare direction predictor (2048-entry PHT in the paper's Table 3).

Classic McFarling gshare: the pattern-history table of 2-bit saturating
counters is indexed by ``(pc >> 2) XOR global_history``. History is kept
*per hardware context* (SMT processors replicate the history register), is
updated speculatively at fetch, and is restored from a snapshot on squash —
each in-flight branch carries the pre-update history in its ``DynInstr``.
"""

from __future__ import annotations

__all__ = ["GShare"]

# 2-bit counter thresholds.
_TAKEN_THRESHOLD = 2  # counter >= 2 predicts taken
_MAX_COUNTER = 3


class GShare:
    """Shared PHT, per-context global-history registers."""

    __slots__ = ("_pht", "_mask", "_hist", "_hist_mask")

    def __init__(self, entries: int, num_contexts: int, history_bits: int | None = None) -> None:
        if entries & (entries - 1):
            raise ValueError("gshare entries must be a power of two")
        # weakly-not-taken initial state (1) trains quickly either way
        self._pht = bytearray([1] * entries)
        self._mask = entries - 1
        if history_bits is None:
            history_bits = entries.bit_length() - 1
        if not 0 <= history_bits <= entries.bit_length() - 1:
            raise ValueError("history_bits must fit within the PHT index")
        self._hist_mask = (1 << history_bits) - 1
        self._hist = [0] * num_contexts

    # -- prediction ---------------------------------------------------------

    def history(self, tid: int) -> int:
        """Current speculative history register of a context (for snapshots)."""
        return self._hist[tid]

    def restore_history(self, tid: int, hist: int) -> None:
        """Roll the history register back after a squash."""
        self._hist[tid] = hist

    def predict(self, tid: int, pc: int) -> bool:
        """Predicted direction for the branch at ``pc`` in context ``tid``."""
        idx = ((pc >> 2) ^ self._hist[tid]) & self._mask
        return self._pht[idx] >= _TAKEN_THRESHOLD

    def speculative_update(self, tid: int, taken: bool) -> None:
        """Shift the predicted direction into the context's history at fetch."""
        self._hist[tid] = ((self._hist[tid] << 1) | (1 if taken else 0)) & self._hist_mask

    # -- training -----------------------------------------------------------

    def train(self, tid: int, pc: int, hist: int, taken: bool) -> None:
        """Update the PHT counter with the resolved outcome.

        ``hist`` is the history register value *at prediction time* (carried
        by the DynInstr), so training hits the same PHT entry the prediction
        read even if younger branches have shifted the live history since.
        """
        idx = ((pc >> 2) ^ hist) & self._mask
        ctr = self._pht[idx]
        if taken:
            if ctr < _MAX_COUNTER:
                self._pht[idx] = ctr + 1
        else:
            if ctr > 0:
                self._pht[idx] = ctr - 1

    # -- introspection ------------------------------------------------------

    def counter_at(self, pc: int, hist: int) -> int:
        """Raw 2-bit counter value (testing hook)."""
        return self._pht[((pc >> 2) ^ hist) & self._mask]
