"""Simulation statistics with measurement-window support.

All counters are cumulative; :meth:`snapshot` is taken when the warm-up
window ends and :meth:`window` returns the deltas, so warm-up transients
(cold caches, untrained predictors, first-touch misses) never contaminate
the measured IPCs — the analogue of the paper measuring inside SimPoint
segments of warmed-up execution.
"""

from __future__ import annotations

__all__ = ["SimStats"]

_PER_THREAD_FIELDS = (
    "fetched",
    "committed",
    "squashed_mispredict",
    "squashed_flush",
    "flush_events",
    "mispredicts",
    "branches_resolved",
    "gated_cycles",
)

_GLOBAL_FIELDS = (
    "cycles",
    "fetch_slots_used",
    "dispatched",
    "issued",
)


class SimStats:
    """Per-thread and global counters plus a window snapshot."""

    __slots__ = ("n", "_snap", *_PER_THREAD_FIELDS, *_GLOBAL_FIELDS)

    def __init__(self, num_threads: int) -> None:
        self.n = num_threads
        for f in _PER_THREAD_FIELDS:
            setattr(self, f, [0] * num_threads)
        for f in _GLOBAL_FIELDS:
            setattr(self, f, 0)
        self._snap: dict | None = None

    # -- windowing -----------------------------------------------------------

    def snapshot(self) -> None:
        """Mark the start of the measurement window (end of warm-up)."""
        snap: dict = {}
        for f in _PER_THREAD_FIELDS:
            snap[f] = list(getattr(self, f))
        for f in _GLOBAL_FIELDS:
            snap[f] = getattr(self, f)
        self._snap = snap

    def window(self) -> dict:
        """Counter deltas since the snapshot (or since reset if none taken)."""
        out: dict = {}
        snap = self._snap
        if snap is None:
            for f in _PER_THREAD_FIELDS:
                out[f] = list(getattr(self, f))
            for f in _GLOBAL_FIELDS:
                out[f] = getattr(self, f)
            return out
        for f in _PER_THREAD_FIELDS:
            cur = getattr(self, f)
            base = snap[f]
            out[f] = [cur[i] - base[i] for i in range(self.n)]
        for f in _GLOBAL_FIELDS:
            out[f] = getattr(self, f) - snap[f]
        return out

    def totals(self) -> dict:
        """Current cumulative counters as a plain dict (lists copied).

        The interval-metrics collector (``repro.obs.interval``) baselines
        and diffs these between window edges; unlike :meth:`window` this is
        snapshot-independent and safe to call at any point in the run.
        """
        out: dict = {}
        for f in _PER_THREAD_FIELDS:
            out[f] = list(getattr(self, f))
        for f in _GLOBAL_FIELDS:
            out[f] = getattr(self, f)
        return out
