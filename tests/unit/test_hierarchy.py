"""Unit tests for the three-level cache hierarchy."""


from repro.cache.hierarchy import CacheHierarchy, Level
from repro.common.config import CacheConfig, HierarchyConfig


def tiny_hierarchy():
    # l1: 2 lines (1 set x 2), l2: 4 lines, l3: 8 lines
    return CacheHierarchy(
        HierarchyConfig(
            l1=CacheConfig(256, 2, latency=1),
            l2=CacheConfig(512, 2, latency=10),
            l3=CacheConfig(1024, 2, latency=50),
        )
    )


class TestDemandPath:
    def test_cold_load_misses_to_memory(self):
        h = tiny_hierarchy()
        writebacks = []
        assert h.access(100, False, writebacks) == (Level.MEMORY, 0)
        assert writebacks == []

    def test_fill_then_l1_hit(self):
        h = tiny_hierarchy()
        h.access(100)
        h.fill_from_memory(100)
        assert h.access(100) == (Level.L1, 1)

    def test_l2_hit_promotes_to_l1(self):
        h = tiny_hierarchy()
        h.fill_from_memory(100, to_l1=False)
        assert h.access(100)[0] is Level.L2
        assert h.access(100)[0] is Level.L1

    def test_l3_hit_promotes(self):
        h = tiny_hierarchy()
        h.fill_from_memory(100)
        # push 100 out of l1 and l2 into the victim l3
        for line in (2, 4, 6, 8):  # same-set conflicts
            h.fill_from_memory(line)
        level = h.present_level(100)
        if level is Level.L3:
            assert h.access(100)[0] is Level.L3
            assert h.present_level(100) in (Level.L1, Level.L2)

    def test_latency_comes_from_config(self):
        h = tiny_hierarchy()
        h.fill_from_memory(100, to_l1=False)
        _, latency_cpu = h.access(100)
        assert latency_cpu == 10


class TestStores:
    def test_store_miss_write_validates(self):
        h = tiny_hierarchy()
        level, _ = h.access(100, write=True)
        assert level is Level.MEMORY
        assert h.present_level(100) is Level.L1
        assert h.stats["write_validates"] == 1

    def test_store_hit_dirties_line(self):
        h = tiny_hierarchy()
        h.fill_from_memory(100)
        h.access(100, write=True)
        # evict 100 from L1 by conflicting fills; its dirty bit must
        # propagate down, eventually producing a DRAM write
        writebacks = []
        line = 102
        for _ in range(12):
            writebacks += h.fill_from_memory(line)
            line += 2
        assert 100 in writebacks or h.present_level(100) is not None


class TestVictimL3:
    def test_clean_l2_victims_enter_l3(self):
        h = tiny_hierarchy()
        h.fill_from_memory(0, to_l1=False)
        # conflict 0 out of its l2 set (l2 has 2 sets: lines 0,2,4 share)
        h.fill_from_memory(2, to_l1=False)
        h.fill_from_memory(4, to_l1=False)
        assert h.l3.contains(0)

    def test_dirty_l3_victims_become_writebacks(self):
        h = tiny_hierarchy()
        collected = []
        # create many dirty lines in one l3 set
        for i in range(12):
            line = i * 2  # all even lines share l2/l3 sets heavily
            h.access(line, True, collected)
        assert collected, "expected dirty L3 victims to reach memory"

    def test_writebacks_are_line_addresses(self):
        h = tiny_hierarchy()
        seen = set()
        for i in range(20):
            writebacks = []
            h.access(i * 2, True, writebacks)
            seen.update(writebacks)
        assert all(isinstance(line, int) for line in seen)


class TestQueries:
    def test_present_level_reports_highest(self):
        h = tiny_hierarchy()
        h.fill_from_memory(100)
        assert h.present_level(100) is Level.L1

    def test_absent_line(self):
        h = tiny_hierarchy()
        assert h.present_level(100) is None
        assert not h.cached_anywhere(100)

    def test_memory_access_counted(self):
        h = tiny_hierarchy()
        h.access(1)
        h.access(3)
        assert h.stats["memory_accesses"] == 2
