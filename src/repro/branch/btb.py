"""Branch target buffer: 256 entries, 4-way set associative (Table 3).

Tags are full PCs (no aliasing within a set); replacement is LRU within the
set, implemented with an ordered list per set — sets are 4-wide so a list
scan is faster than any fancier structure.
"""

from __future__ import annotations

__all__ = ["BTB"]


class BTB:
    """PC -> predicted target mapping for taken branches."""

    __slots__ = ("_sets", "_set_mask", "_assoc")

    def __init__(self, entries: int, assoc: int) -> None:
        if entries % assoc:
            raise ValueError("BTB entries must be divisible by associativity")
        num_sets = entries // assoc
        if num_sets & (num_sets - 1):
            raise ValueError("BTB set count must be a power of two")
        # Each set is a list of (pc, target), most-recently-used last.
        self._sets: list[list[tuple[int, int]]] = [[] for _ in range(num_sets)]
        self._set_mask = num_sets - 1
        self._assoc = assoc

    def lookup(self, pc: int) -> int | None:
        """Predicted target for the branch at ``pc``, or None on a BTB miss."""
        s = self._sets[(pc >> 2) & self._set_mask]
        for i, (tag, target) in enumerate(s):
            if tag == pc:
                if i != len(s) - 1:  # move to MRU position
                    s.append(s.pop(i))
                return target
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for a resolved taken branch."""
        s = self._sets[(pc >> 2) & self._set_mask]
        for i, (tag, _) in enumerate(s):
            if tag == pc:
                s.pop(i)
                break
        else:
            if len(s) >= self._assoc:
                s.pop(0)  # evict LRU
        s.append((pc, target))
