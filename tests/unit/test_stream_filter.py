"""Unit tests for the Stream Filter."""


from repro.common.config import StreamFilterConfig
from repro.common.types import Direction
from repro.prefetch.stream_filter import StreamFilter


def make_filter(slots=8, init=10, inc=10, cap=80, collect=None):
    cfg = StreamFilterConfig(
        slots=slots, lifetime_init=init, lifetime_increment=inc, lifetime_cap=cap
    )
    return StreamFilter(cfg, on_evict=collect)


class TestAllocation:
    def test_first_read_allocates_length_one(self):
        sf = make_filter()
        # (position, step): a fresh, tracked, ascending stream
        assert sf.observe(100, 0) == (1, 1)
        assert sf.occupancy == 1

    def test_each_new_region_gets_a_slot(self):
        sf = make_filter()
        for i, line in enumerate((100, 200, 300)):
            sf.observe(line, i)
        assert sf.occupancy == 3


class TestAdvance:
    def test_sequential_reads_extend_stream(self):
        sf = make_filter()
        sf.observe(100, 0)
        assert sf.observe(101, 1) == (2, 1)
        assert sf.occupancy == 1

    def test_long_stream_positions(self):
        sf = make_filter()
        for k, line in enumerate(range(100, 110)):
            position, _ = sf.observe(line, k)
            assert position == k + 1

    def test_descending_flip_on_length_one(self):
        # paper: direction becomes Negative when a length-1 stream sees
        # the preceding address
        sf = make_filter()
        sf.observe(100, 0)
        assert sf.observe(99, 1) == (2, -1)

    def test_descending_stream_continues_downward(self):
        sf = make_filter()
        sf.observe(100, 0)
        sf.observe(99, 1)
        assert sf.observe(98, 2) == (3, -1)

    def test_no_descending_flip_after_length_two(self):
        sf = make_filter()
        sf.observe(100, 0)
        sf.observe(101, 1)
        # 100 again does not extend the (now length-2 ascending) stream
        assert sf.observe(100, 2) == (1, 1)
        assert sf.occupancy == 2

    def test_nonadjacent_read_starts_new_stream(self):
        sf = make_filter()
        sf.observe(100, 0)
        assert sf.observe(105, 1) == (1, 1)
        assert sf.occupancy == 2


class TestFullFilter:
    def test_untracked_when_full(self):
        sf = make_filter(slots=2)
        sf.observe(100, 0)
        sf.observe(200, 0)
        assert sf.observe(300, 0) is None  # not followed
        assert sf.occupancy == 2

    def test_untracked_records_length_one(self):
        # paper: the SLH is still updated as if a length-1 stream occurred
        seen = []
        sf = make_filter(slots=1, collect=lambda l, d: seen.append((l, d)))
        sf.observe(100, 0)
        sf.observe(200, 0)
        assert seen == [(1, Direction.ASCENDING)]

    def test_advance_still_possible_when_full(self):
        sf = make_filter(slots=1)
        sf.observe(100, 0)
        assert sf.observe(101, 1) == (2, 1)


class TestLifetimes:
    def test_expiry_evicts_and_reports_length(self):
        seen = []
        sf = make_filter(init=5, collect=lambda l, d: seen.append(l))
        sf.observe(100, 0)
        sf.observe(101, 1)
        sf.expire(100)
        assert seen == [2]
        assert sf.occupancy == 0

    def test_advance_extends_lifetime(self):
        sf = make_filter(init=5, inc=5)
        sf.observe(100, 0)  # expires at 5
        sf.observe(101, 2)  # expires at 10
        sf.expire(7)
        assert sf.occupancy == 1

    def test_lifetime_cap(self):
        sf = make_filter(init=5, inc=100, cap=10)
        sf.observe(100, 0)
        sf.observe(101, 1)  # would be 105, capped at 1+10
        sf.expire(12)
        assert sf.occupancy == 0

    def test_observe_expires_implicitly(self):
        seen = []
        sf = make_filter(init=5, collect=lambda l, d: seen.append(l))
        sf.observe(100, 0)
        sf.observe(500, 50)  # first slot long dead
        assert seen == [1]
        assert sf.occupancy == 1


class TestFlush:
    def test_flush_reports_all_streams(self):
        seen = []
        sf = make_filter(collect=lambda l, d: seen.append(l))
        sf.observe(100, 0)
        sf.observe(101, 1)
        sf.observe(500, 2)
        sf.flush()
        assert sorted(seen) == [1, 2]
        assert sf.occupancy == 0

    def test_flush_callback_override(self):
        normal, special = [], []
        sf = make_filter(collect=lambda l, d: normal.append(l))
        sf.observe(100, 0)
        sf.flush(callback=lambda l, d: special.append(l))
        assert normal == []
        assert special == [1]

    def test_flush_direction_reported(self):
        seen = []
        sf = make_filter(collect=lambda l, d: seen.append(d))
        sf.observe(100, 0)
        sf.observe(99, 1)
        sf.flush()
        assert seen == [Direction.DESCENDING]


class TestStats:
    def test_counts(self):
        sf = make_filter(slots=1)
        sf.observe(100, 0)  # allocation
        sf.observe(101, 1)  # advance
        sf.observe(500, 2)  # untracked
        assert sf.stats["allocations"] == 1
        assert sf.stats["advances"] == 1
        assert sf.stats["untracked"] == 1

    def test_lengths_helper(self):
        sf = make_filter()
        sf.observe(100, 0)
        sf.observe(101, 1)
        sf.observe(200, 2)
        assert sorted(sf.lengths()) == [1, 2]
