"""Unit tests for the set-associative cache."""


from repro.cache.cache import Cache
from repro.common.config import CacheConfig


def make_cache(size=1024, assoc=2, line=128):
    # 1024/128 = 8 lines, 2-way -> 4 sets
    return Cache(CacheConfig(size, assoc, latency=1, line_size=line))


class TestLookup:
    def test_miss_on_empty(self):
        c = make_cache()
        assert not c.lookup(5)
        assert c.stats["misses"] == 1

    def test_hit_after_fill(self):
        c = make_cache()
        c.fill(5)
        assert c.lookup(5)
        assert c.stats["hits"] == 1

    def test_contains_no_side_effects(self):
        c = make_cache()
        c.fill(5)
        c.contains(5)
        assert c.stats["hits"] == 0

    def test_write_sets_dirty(self):
        c = make_cache()
        c.fill(0)
        c.fill(4)  # same set (4 sets, lines 0 and 4 collide)
        c.lookup(0, write=True)
        c.lookup(0)  # refresh 0 again -> 4 is LRU... fill order matters
        ev = c.fill(8)  # set 0 full: evicts 4 (LRU)
        assert ev == (4, False)
        ev = c.fill(12)  # now evicts 0, which is dirty
        assert ev == (0, True)


class TestFill:
    def test_fill_existing_keeps_single_copy(self):
        c = make_cache()
        c.fill(5)
        assert c.fill(5) is None
        assert c.occupancy == 1

    def test_refill_ors_dirty(self):
        c = make_cache(size=256, assoc=2)  # 1 set of 2
        c.fill(0, dirty=True)
        c.fill(0, dirty=False)  # must not clear the dirty bit
        c.fill(1)
        ev = c.fill(2)
        assert ev == (0, True)

    def test_eviction_is_lru(self):
        c = make_cache(size=256, assoc=2)  # 1 set
        c.fill(0)
        c.fill(1)
        c.lookup(0)  # 1 becomes LRU
        ev = c.fill(2)
        assert ev[0] == 1

    def test_occupancy_bounded(self):
        c = make_cache()
        for line in range(100):
            c.fill(line)
        assert c.occupancy <= 8

    def test_dirty_eviction_counted(self):
        c = make_cache(size=256, assoc=2)
        c.fill(0, dirty=True)
        c.fill(1)
        c.fill(2)
        assert c.stats["dirty_evictions"] == 1


class TestInvalidate:
    def test_invalidate_present(self):
        c = make_cache()
        c.fill(5)
        assert c.invalidate(5)
        assert not c.contains(5)

    def test_invalidate_absent(self):
        assert not make_cache().invalidate(5)

    def test_refill_after_invalidate(self):
        c = make_cache()
        c.fill(5)
        c.invalidate(5)
        c.fill(5)
        assert c.contains(5)

    def test_resident_lines(self):
        c = make_cache()
        c.fill(1)
        c.fill(2)
        assert sorted(c.resident_lines()) == [1, 2]
