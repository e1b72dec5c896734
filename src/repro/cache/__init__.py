"""Set-associative cache model and the Power5+ three-level hierarchy.

Caches here are *contents-accurate, latency-abstract*: hits and misses,
fills, dirty bits and evictions are modelled exactly; a hit's cost is the
level's fixed latency.  That is the fidelity the paper's mechanisms need
— the memory-side prefetcher only ever sees the post-cache read stream.
Results are plain values: ``Cache.fill`` reports a victim as a
``(line, dirty)`` pair and ``CacheHierarchy.access`` returns a
``(level, latency_cpu)`` pair.
"""

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy, Level
from repro.cache.replacement import LRUPolicy, ReplacementPolicy, TreePLRUPolicy

__all__ = [
    "Cache",
    "CacheHierarchy",
    "Level",
    "LRUPolicy",
    "ReplacementPolicy",
    "TreePLRUPolicy",
]
