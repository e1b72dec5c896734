"""Property-based tests for the cache and Prefetch Buffer."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.common.config import CacheConfig, PrefetchBufferConfig
from repro.prefetch.prefetch_buffer import PrefetchBuffer

lines = st.integers(min_value=0, max_value=63)
ops = st.lists(
    st.tuples(st.sampled_from(["fill", "read", "write", "inval"]), lines),
    max_size=200,
)


def run_cache(operations, size=1024, assoc=2):
    cache = Cache(CacheConfig(size, assoc, latency=1))
    for op, line in operations:
        if op == "fill":
            cache.fill(line)
        elif op in ("read", "write"):
            cache.lookup(line, write=op == "write")
        elif op == "inval":
            cache.invalidate(line)
    return cache


@given(ops)
def test_cache_occupancy_bounded(operations):
    cache = run_cache(operations)
    assert cache.occupancy <= cache.config.num_lines


@given(ops)
def test_cache_no_duplicate_lines(operations):
    cache = run_cache(operations)
    resident = list(cache.resident_lines())
    assert len(resident) == len(set(resident))


@given(ops)
def test_cache_hit_iff_resident(operations):
    """contains() and lookup() agree; lookup after fill always hits
    until eviction/invalidation."""
    cache = run_cache(operations)
    for line in range(64):
        assert cache.contains(line) == (line in set(cache.resident_lines()))


@given(ops)
def test_set_discipline(operations):
    """A line only ever lives in its own set."""
    cache = run_cache(operations)
    for s_index, lines_map in enumerate(cache._lines):
        for line in lines_map.values():
            assert cache.set_index(line) == s_index


@given(st.lists(st.tuples(st.sampled_from(["insert", "read", "write"]), lines), max_size=200))
def test_prefetch_buffer_read_once(operations):
    """A line can be consumed by exactly one read after each insert."""
    pb = PrefetchBuffer(PrefetchBufferConfig())
    consumable = set()
    for op, line in operations:
        if op == "insert":
            pb.insert(line)
            consumable.add(line)
        elif op == "read":
            hit = pb.read_hit(line)
            if hit:
                assert line in consumable
                consumable.discard(line)
            else:
                # misses may be capacity evictions; never a consumable
                # line that was not inserted
                pass
            assert not pb.contains(line) or line != line  # consumed
        else:
            pb.invalidate(line)
            consumable.discard(line)
    assert pb.occupancy <= PrefetchBufferConfig().entries


@given(st.lists(lines, max_size=300))
def test_prefetch_buffer_capacity(inserts):
    pb = PrefetchBuffer(PrefetchBufferConfig(entries=16, assoc=4))
    for line in inserts:
        pb.insert(line)
    assert pb.occupancy <= 16
    # stats balance: inserts = resident + consumed(0) + evicted
    assert pb.stats["inserts"] == pb.occupancy + pb.stats["evicted_unused"]


@given(st.lists(lines, min_size=1, max_size=100))
def test_prefetch_buffer_useful_fraction_bounds(inserts):
    pb = PrefetchBuffer(PrefetchBufferConfig())
    for line in inserts:
        pb.insert(line)
    pb.read_hit(inserts[-1])
    assert 0.0 <= pb.useful_fraction() <= 1.0


class _NaiveLRUCache:
    """Reference model of way choice: the lowest free way, else the
    least recently touched way of the set."""

    def __init__(self, num_sets, assoc):
        self.num_sets = num_sets
        self.assoc = assoc
        self.ways = [dict() for _ in range(num_sets)]  # way -> [line, dirty]
        self.last_use = [dict() for _ in range(num_sets)]  # way -> time
        self.clock = 0

    def _find(self, line):
        s = line % self.num_sets
        for way, (resident, _) in self.ways[s].items():
            if resident == line:
                return s, way
        return s, None

    def _touch(self, s, way):
        self.clock += 1
        self.last_use[s][way] = self.clock

    def lookup(self, line, write):
        s, way = self._find(line)
        if way is not None:
            self._touch(s, way)
            if write:
                self.ways[s][way][1] = True
        return way is not None

    def fill(self, line, dirty):
        """Returns (way, evicted (line, dirty) or None)."""
        s, way = self._find(line)
        if way is not None:
            self._touch(s, way)
            self.ways[s][way][1] = self.ways[s][way][1] or dirty
            return way, None
        free = [w for w in range(self.assoc) if w not in self.ways[s]]
        evicted = None
        if free:
            way = free[0]
        else:
            way = min(range(self.assoc), key=lambda w: self.last_use[s][w])
            evicted = tuple(self.ways[s][way])
        self.ways[s][way] = [line, dirty]
        self._touch(s, way)
        return way, evicted

    def invalidate(self, line):
        s, way = self._find(line)
        if way is not None:
            del self.ways[s][way]
        return way is not None


cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["fill", "fill_dirty", "read", "write", "inval"]),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=300,
)


@given(cache_ops)
# a hole below the fill point: way 0 freed while way 1 stays resident
@example([("fill", 0), ("fill", 2), ("inval", 0), ("fill", 4)])
def test_fill_way_and_victim_match_naive_lru(operations):
    """Fills, lookups and invalidations in any order (so invalidation
    holes below the fill point) install each line in the way, and evict
    the line, that a naive lowest-free-way-else-LRU model picks."""
    cache = Cache(CacheConfig(1024, 4, latency=1))  # 2 sets x 4 ways
    model = _NaiveLRUCache(cache.num_sets, cache.assoc)
    for op, line in operations:
        if op in ("fill", "fill_dirty"):
            dirty = op == "fill_dirty"
            way, evicted = model.fill(line, dirty)
            ev = cache.fill(line, dirty)
            assert ev == evicted
            assert cache._where[cache.set_index(line)][line] == way
        elif op in ("read", "write"):
            write = op == "write"
            assert cache.lookup(line, write=write) == model.lookup(line, write)
        else:
            assert cache.invalidate(line) == model.invalidate(line)
