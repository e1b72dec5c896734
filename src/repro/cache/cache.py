"""One set-associative cache level.

Lines are identified by their global line address; the set index is the
low bits of the line address and the remainder is the tag.  The cache
tracks dirty bits and reports each eviction as a plain ``(line, dirty)``
pair so a write-back hierarchy can turn dirty victims into DRAM writes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.replacement import (
    LRUPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
)
from repro.common.config import CacheConfig
from repro.common.stats import Stats


class Cache:
    """Contents-accurate set-associative cache with pluggable replacement."""

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        if policy is not None:
            self.policy = policy
        elif config.replacement == "tree_plru":
            self.policy = TreePLRUPolicy(self.num_sets, self.assoc)
        else:
            self.policy = LRUPolicy(self.num_sets, self.assoc)
        # per set: way -> line  and  way -> dirty
        self._lines: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._dirty: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        # reverse map per set: line -> way (fast lookup)
        self._where: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        # ways fill in order 0, 1, 2, ... so until an invalidation
        # leaves a hole, a non-full set's lowest free way is len(lines)
        self._holes = False
        self.stats = Stats()
        # hot path: lookup/fill add straight into the underlying
        # counter mapping (see Stats.raw)
        self._stat_values = self.stats.raw()

    # ------------------------------------------------------------------
    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def contains(self, line: int) -> bool:
        """Presence check with no replacement-state side effects."""
        return line in self._where[self.set_index(line)]

    def lookup(self, line: int, write: bool = False) -> bool:
        """Access the cache: returns True on hit (updating recency/dirty)."""
        s = line % self.num_sets
        way = self._where[s].get(line)
        if way is None:
            self._stat_values["misses"] += 1
            return False
        self._stat_values["hits"] += 1
        self.policy.touch(s, way)
        if write:
            self._dirty[s][way] = True
        return True

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install ``line``; returns the ``(line, dirty)`` pair of the
        victim it pushed out, if any.

        Filling a line that is already present only updates recency and
        ORs in the dirty bit (a prefetch fill must not lose a dirty bit).
        """
        s = line % self.num_sets
        where = self._where[s]
        existing = where.get(line)
        if existing is not None:
            self.policy.touch(s, existing)
            if dirty:
                self._dirty[s][existing] = True
            return None

        values = self._stat_values
        lines = self._lines[s]
        dirty_map = self._dirty[s]
        if len(lines) < self.assoc:
            # take the lowest-numbered free way
            if self._holes:
                way = next(w for w in range(self.assoc) if w not in lines)
            else:
                way = len(lines)
            evicted = None
        else:
            way = self.policy.victim(s)
            old_line = lines[way]
            old_dirty = dirty_map.get(way, False)
            evicted = (old_line, old_dirty)
            del where[old_line]
            values["evictions"] += 1
            if old_dirty:
                values["dirty_evictions"] += 1
        lines[way] = line
        dirty_map[way] = dirty
        where[line] = way
        self.policy.fill(s, way)
        values["fills"] += 1
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present (dirty data is discarded); True if hit."""
        s = self.set_index(line)
        way = self._where[s].pop(line, None)
        if way is None:
            return False
        del self._lines[s][way]
        self._dirty[s].pop(way, None)
        self._holes = True
        self.stats.bump("invalidations")
        return True

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._lines)

    def resident_lines(self):
        """Iterate over all resident line addresses (test/debug helper)."""
        for s in self._lines:
            yield from s.values()
