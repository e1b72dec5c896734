"""Unit tests for hierarchy fill destinations and promotion paths."""


from repro.cache.hierarchy import CacheHierarchy, Level
from repro.common.config import CacheConfig, HierarchyConfig


def hierarchy():
    return CacheHierarchy(
        HierarchyConfig(
            l1=CacheConfig(256, 2, latency=1),
            l2=CacheConfig(1024, 2, latency=10),
            l3=CacheConfig(2048, 2, latency=50),
        )
    )


class TestFillDestinations:
    def test_l2_destined_fill_skips_l1(self):
        h = hierarchy()
        h.fill_from_memory(100, to_l1=False)
        assert not h.l1.contains(100)
        assert h.l2.contains(100)

    def test_l1_destined_fill_lands_in_both(self):
        h = hierarchy()
        h.fill_from_memory(100, to_l1=True)
        assert h.l1.contains(100)
        assert h.l2.contains(100)

    def test_l2_hit_promotes_to_l1(self):
        # the PS prefetcher's L2-edge line becomes an L1 line on use
        h = hierarchy()
        h.fill_from_memory(100, to_l1=False)
        level, _ = h.access(100)
        assert level is Level.L2
        assert h.l1.contains(100)

    def test_second_access_is_l1_hit(self):
        h = hierarchy()
        h.fill_from_memory(100, to_l1=False)
        h.access(100)
        assert h.access(100)[0] is Level.L1


class TestDirtyPropagation:
    def test_dirty_bit_survives_l1_eviction(self):
        h = hierarchy()
        h.fill_from_memory(100)
        h.access(100, write=True)  # dirty in L1
        # evict 100 from its L1 set (2 ways): two conflicting fills
        h.fill_from_memory(102, to_l1=True)
        h.fill_from_memory(104, to_l1=True)
        assert not h.l1.contains(100)
        # the dirty copy must now be in L2 (write-back, not lost)
        assert h.l2.contains(100)

    def test_clean_lines_never_write_back(self):
        h = hierarchy()
        writebacks = []
        for i in range(64):  # stream far past total capacity
            h.access(1000 + i, False, writebacks)
            h.fill_from_memory(1000 + i)
        assert writebacks == []

    def test_dirty_lines_eventually_write_back(self):
        h = hierarchy()
        writebacks = []
        for i in range(64):
            h.access(1000 + i, True, writebacks)
        assert writebacks


class TestRefillSemantics:
    def test_refill_does_not_clear_dirty(self):
        h = hierarchy()
        h.access(100, write=True)  # write-validate: dirty in L1
        h.fill_from_memory(100)  # e.g. a racing prefetch fill
        # push it out and ensure the dirty bit survived
        h.fill_from_memory(102)
        h.fill_from_memory(104)
        assert h.l2.contains(100)
        # drive it all the way out of L2/L3 and count the write-back
        writebacks = []
        line = 106
        for _ in range(40):
            writebacks += h.fill_from_memory(line, to_l1=False)
            line += 2
        # either still resident somewhere or written back, never dropped
        resident = h.cached_anywhere(100)
        assert resident or 100 in writebacks
