"""Data TLB: set-associative over virtual page numbers.

Thread address spaces are disjoint by construction (the workload builder
gives each context its own base offset), so a shared TLB needs no ASID field
— page numbers never collide between threads.
"""

from __future__ import annotations

from repro.config.memory import TLBConfig

__all__ = ["TLB"]


class TLB:
    """Page-number cache with LRU sets, mirroring :class:`repro.mem.cache.Cache`."""

    __slots__ = ("cfg", "_page_shift", "_set_mask", "_assoc", "_sets")

    def __init__(self, cfg: TLBConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self._page_shift = cfg.page_bytes.bit_length() - 1
        num_sets = cfg.entries // cfg.assoc
        if num_sets & (num_sets - 1):
            raise ValueError("TLB set count must be a power of two")
        self._set_mask = num_sets - 1
        self._assoc = cfg.assoc
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]

    def access(self, addr: int) -> bool:
        """Translate ``addr``; True on hit. A miss installs the page (the
        walk itself is charged by the hierarchy as ``miss_penalty``)."""
        page = addr >> self._page_shift
        s = self._sets[page & self._set_mask]
        n = len(s)
        if n and s[n - 1] == page:
            return True
        for i in range(n - 1):
            if s[i] == page:
                s.append(s.pop(i))
                return True
        if n >= self._assoc:
            s.pop(0)
        s.append(page)
        return False
