"""A calendar-queue ("event wheel") for cycle-scheduled simulator events.

The pipeline schedules completions, cache fills, L2-miss declarations and
un-gate signals at known future cycles. A ``dict[int, list]`` keyed by cycle
gives O(1) schedule and O(1) drain per cycle without scanning, which the
profiling guide calls out as the difference between an event-driven and a
scan-everything simulator loop.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["EventWheel"]


class EventWheel:
    """Maps future cycle -> list of opaque events.

    Events are arbitrary payloads; the simulator decides how to interpret
    them when it drains a cycle: its drain stage pops that cycle's bucket
    and subtracts its length from ``pending``. A bucket lists its events in
    scheduling order, which keeps the simulation deterministic.
    """

    __slots__ = ("buckets", "pending")

    def __init__(self) -> None:
        self.buckets: dict[int, list[Any]] = {}
        self.pending = 0

    def schedule(self, cycle: int, event: Any) -> None:
        """Schedule ``event`` to fire at ``cycle``."""
        bucket = self.buckets.get(cycle)
        if bucket is None:
            self.buckets[cycle] = [event]
        else:
            bucket.append(event)
        self.pending += 1

    def __len__(self) -> int:
        return self.pending

    def __bool__(self) -> bool:
        return self.pending > 0

    def next_cycle(self) -> int | None:
        """Earliest cycle holding an event, or None if empty. O(#buckets)."""
        if not self.buckets:
            return None
        return min(self.buckets)

    def iter_all(self) -> Iterator[tuple[int, Any]]:
        """Iterate (cycle, event) pairs in cycle order (for debugging)."""
        for cycle in sorted(self.buckets):
            for event in self.buckets[cycle]:
                yield cycle, event

    def clear(self) -> None:
        """Drop every pending event."""
        self.buckets.clear()
        self.pending = 0
