"""Set-associative LRU cache with per-cycle bank arbitration.

A cache's tags live in one flat list, ``_tags``: set ``s`` owns
``_tags[s * assoc:(s + 1) * assoc]`` in LRU order, MRU way first, and
``-1`` marks an empty way (empty ways always sit at the LRU end, since a
fill ages every way by one). One list per cache instead of one per set keeps
a simulator's tag state to three objects, so building, cloning,
checkpointing and freeing a simulator costs a few list copies, not
thousands of small lists. Hits in the MRU way, the common case, cost one
index; other ways are scanned and shifted in place with plain loops, since
on the two-way sets of the modelled machines one slice costs more than the
whole loop.

Addresses are byte addresses; the cache operates on line addresses
(``addr >> line_shift``).
"""

from __future__ import annotations

from repro.config.memory import CacheConfig

__all__ = ["Cache"]


class Cache:
    """One cache level's tag array. Latency/fill policy live in the hierarchy."""

    __slots__ = (
        "cfg",
        "name",
        "line_shift",
        "_set_mask",
        "_assoc",
        "_tags",
        "_bank_mask",
        "_bank_busy_cycle",
        "_bank_busy",
    )

    def __init__(self, cfg: CacheConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self.name = cfg.name
        self.line_shift = cfg.line_bytes.bit_length() - 1
        self._set_mask = cfg.num_sets - 1
        self._assoc = cfg.assoc
        self._tags: list[int] = [-1] * cfg.num_lines
        self._bank_mask = cfg.banks - 1
        # Bank arbitration: one access per bank per cycle. We track, per
        # cycle, which banks have been used; stale entries are reset lazily.
        self._bank_busy_cycle = -1
        self._bank_busy = 0  # bitmask over banks used this cycle

    # -- tag array ----------------------------------------------------------

    def probe(self, line_addr: int) -> bool:
        """True if the line is present; updates LRU on hit."""
        tags = self._tags
        base = (line_addr & self._set_mask) * self._assoc
        if tags[base] == line_addr:  # MRU fast path
            return True
        w = base + 1
        end = base + self._assoc
        while w < end:
            if tags[w] == line_addr:
                while w > base:  # the ways before it age by one
                    tags[w] = tags[w - 1]
                    w -= 1
                tags[base] = line_addr
                return True
            w += 1
        return False

    def contains(self, line_addr: int) -> bool:
        """Presence check without LRU update (testing/policy hook)."""
        base = (line_addr & self._set_mask) * self._assoc
        return line_addr in self._tags[base : base + self._assoc]

    def fill(self, line_addr: int) -> int:
        """Insert a line as MRU, evicting the LRU way. Returns the victim line
        address, or -1 if the set had an empty way or already held the line
        (a present line's LRU position is left alone). The hierarchy models
        non-inclusive caches, so victims are dropped."""
        tags = self._tags
        base = (line_addr & self._set_mask) * self._assoc
        w = base + self._assoc - 1  # the LRU way
        victim = tags[w]
        if victim == line_addr or tags[base] == line_addr:
            return -1
        i = base + 1
        while i < w:
            if tags[i] == line_addr:
                return -1
            i += 1
        while w > base:  # every way ages by one; the LRU way falls off
            tags[w] = tags[w - 1]
            w -= 1
        tags[base] = line_addr
        return victim

    # -- banking -------------------------------------------------------------

    def bank_conflict(self, line_addr: int, cycle: int) -> bool:
        """Claim the bank for ``line_addr`` at ``cycle``.

        Returns True if the bank was already used this cycle (caller then
        delays the access by one cycle). Lines map to banks by low
        line-address bits, the usual interleaving.
        """
        if cycle != self._bank_busy_cycle:
            self._bank_busy_cycle = cycle
            self._bank_busy = 0
        bit = 1 << (line_addr & self._bank_mask)
        if self._bank_busy & bit:
            return True
        self._bank_busy |= bit
        return False

    # -- introspection --------------------------------------------------------

    def occupancy(self) -> int:
        """Number of valid lines (testing hook)."""
        return len(self._tags) - self._tags.count(-1)
