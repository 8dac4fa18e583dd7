"""Memory hierarchy substrate.

Stateful, address-based models: set-associative LRU caches with banking,
MSHR-style outstanding-fill merging, a unified L2, a fixed-latency main
memory and a data TLB. Miss behaviour *emerges* from real tag arrays over the
synthetic address streams — it is never pre-drawn — so refetched loads whose
line was filled meanwhile hit, and secondary misses merge, exactly as in the
paper's SMTSIM substrate (DESIGN.md §5).
"""

from repro.mem.cache import Cache
from repro.mem.tlb import TLB
from repro.mem.hierarchy import MemoryHierarchy

__all__ = ["Cache", "TLB", "MemoryHierarchy"]
