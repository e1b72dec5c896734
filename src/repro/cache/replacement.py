"""Replacement policies for set-associative structures.

A policy instance manages victim selection for *one cache*; it is told
about touches and fills per (set, way) and asked for a victim way when a
set is full.  LRU is the policy the paper assumes for the Prefetch
Buffer; tree-PLRU is provided as the cheaper hardware-realistic variant
used by large L2/L3 arrays.
"""

from __future__ import annotations

from typing import List


class ReplacementPolicy:
    """Interface: victim selection and usage tracking for one cache."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc

    def touch(self, set_index: int, way: int) -> None:
        """Record a hit on (set, way)."""
        raise NotImplementedError

    def fill(self, set_index: int, way: int) -> None:
        """Record a fill into (set, way)."""
        self.touch(set_index, way)

    def victim(self, set_index: int) -> int:
        """Choose the way to evict from a full set."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used via per-set recency stacks."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        # stacks[s] lists ways from LRU (front) to MRU (back)
        self._stacks: List[List[int]] = [
            list(range(assoc)) for _ in range(num_sets)
        ]

    def touch(self, set_index: int, way: int) -> None:
        stack = self._stacks[set_index]
        stack.remove(way)
        stack.append(way)

    # a fill is a touch; defined again to save a call on every fill
    def fill(self, set_index: int, way: int) -> None:
        stack = self._stacks[set_index]
        stack.remove(way)
        stack.append(way)

    def victim(self, set_index: int) -> int:
        return self._stacks[set_index][0]


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU (binary decision tree per set).

    Associativity must be a power of two; for other associativities the
    tree covers the next power of two and out-of-range victims fall back
    to way 0 (matching common hardware padding).
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__(num_sets, assoc)
        self._leaves = 1
        while self._leaves < assoc:
            self._leaves *= 2
        # one flat array of internal-node bits per set
        self._bits: List[List[bool]] = [
            [False] * max(1, self._leaves - 1) for _ in range(num_sets)
        ]

    def touch(self, set_index: int, way: int) -> None:
        bits = self._bits[set_index]
        node = 0
        lo, hi = 0, self._leaves
        while hi - lo > 1:
            mid = (lo + hi) // 2
            went_right = way >= mid
            bits[node] = not went_right  # point away from the touched half
            node = 2 * node + (2 if went_right else 1)
            if went_right:
                lo = mid
            else:
                hi = mid

    def victim(self, set_index: int) -> int:
        bits = self._bits[set_index]
        node = 0
        lo, hi = 0, self._leaves
        while hi - lo > 1:
            mid = (lo + hi) // 2
            go_right = bits[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                lo = mid
            else:
                hi = mid
        return lo if lo < self.assoc else 0
