"""Unit tests for the Power5-style processor-side prefetcher."""


from repro.common.config import ProcessorSidePrefetcherConfig
from repro.prefetch.processor_side import ProcessorSidePrefetcher


def make_ps(**kw):
    defaults = dict(enabled=True, l1_lead=1, l2_lead=4, ramp=1)
    defaults.update(kw)
    return ProcessorSidePrefetcher(ProcessorSidePrefetcherConfig(**defaults))


class TestConfirmation:
    def test_single_miss_only_allocates(self):
        ps = make_ps()
        assert ps.observe(100, l1_hit=False) == []

    def test_two_consecutive_misses_confirm(self):
        ps = make_ps()
        ps.observe(100, l1_hit=False)
        reqs = ps.observe(101, l1_hit=False)
        assert [line for line, _ in reqs] == [102]

    def test_descending_confirmation(self):
        ps = make_ps()
        ps.observe(100, l1_hit=False)
        reqs = ps.observe(99, l1_hit=False)
        assert [line for line, _ in reqs] == [98]

    def test_disabled_never_prefetches(self):
        ps = make_ps(enabled=False)
        ps.observe(100, l1_hit=False)
        assert ps.observe(101, l1_hit=False) == []

    def test_candidate_table_bounded(self):
        ps = make_ps(detect_entries=2)
        ps.observe(10, l1_hit=False)
        ps.observe(20, l1_hit=False)
        ps.observe(30, l1_hit=False)  # 10 falls out of the FIFO
        assert ps.observe(11, l1_hit=False) == []


class TestRampAndLeads:
    def test_depth_grows_per_advance(self):
        ps = make_ps(ramp=1, l2_lead=4)
        ps.observe(100, l1_hit=False)
        first = ps.observe(101, l1_hit=False)  # depth 1 -> line 102
        second = ps.observe(102, l1_hit=False)  # depth 2 -> 103, 104
        assert [line for line, _ in first] == [102]
        assert [line for line, _ in second] == [103, 104]

    def test_depth_caps_at_l2_lead(self):
        ps = make_ps(ramp=1, l2_lead=2)
        ps.observe(100, l1_hit=False)
        ps.observe(101, l1_hit=False)
        ps.observe(102, l1_hit=False)
        steady = ps.observe(103, l1_hit=False)
        assert [line for line, _ in steady] == [105]  # one new edge line

    def test_l1_destination_within_lead(self):
        ps = make_ps(ramp=2, l1_lead=1, l2_lead=4)
        ps.observe(100, l1_hit=False)
        reqs = ps.observe(101, l1_hit=False)
        dests = dict(reqs)
        assert dests[102] is True  # within l1_lead
        assert dests[103] is False  # beyond l1_lead


class TestAdvanceOnHit:
    def test_prefetched_l1_hit_advances_stream(self):
        ps = make_ps()
        ps.observe(100, l1_hit=False)
        ps.observe(101, l1_hit=False)  # confirm, prefetch 102
        ps.notify_fill(102, to_l1=True)
        reqs = ps.observe(102, l1_hit=True)
        assert [line for line, _ in reqs] == [103, 104]

    def test_ordinary_l1_hit_ignored(self):
        ps = make_ps()
        ps.observe(100, l1_hit=False)
        ps.observe(101, l1_hit=False)
        assert ps.observe(102, l1_hit=True) == []  # not PS-installed

    def test_l2_fills_not_tracked_for_hits(self):
        ps = make_ps()
        ps.notify_fill(500, to_l1=False)
        assert ps.observe(500, l1_hit=True) == []


class TestStreamTable:
    def test_max_streams_lru(self):
        ps = make_ps(max_streams=2)
        for s in range(3):
            base = s * 1000
            ps.observe(base, l1_hit=False)
            ps.observe(base + 1, l1_hit=False)
        assert ps.active_streams == 2
        # the first stream was evicted
        assert ps.observe(2, l1_hit=False) == []

    def test_stats(self):
        ps = make_ps()
        ps.observe(100, l1_hit=False)
        ps.observe(101, l1_hit=False)
        ps.observe(102, l1_hit=False)
        assert ps.stats["confirms"] == 1
        assert ps.stats["advances"] == 1
