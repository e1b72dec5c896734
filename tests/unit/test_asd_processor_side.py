"""Unit tests for the processor-side ASD prefetcher (future work)."""


import pytest

from repro.common.config import ProcessorSidePrefetcherConfig, SLHConfig
from repro.prefetch.asd_processor_side import (
    ASDProcessorSidePrefetcher,
    build_processor_side,
)
from repro.prefetch.processor_side import ProcessorSidePrefetcher


def make(epoch=50, lead=4, enabled=True):
    cfg = ProcessorSidePrefetcherConfig(
        enabled=enabled,
        engine="asd",
        lead=lead,
        asd_slh=SLHConfig(epoch_reads=epoch),
    )
    return ASDProcessorSidePrefetcher(cfg)


def train_streams(ps, count=30, length=8, start=0):
    """Teach the prefetcher `count` ascending streams of `length`."""
    line = start
    for _ in range(count):
        for _ in range(length):
            ps.observe(line, l1_hit=False)
            line += 1
        line += 100
    return line


class TestFactory:
    def test_asd_engine_selected(self):
        cfg = ProcessorSidePrefetcherConfig(enabled=True, engine="asd")
        assert isinstance(build_processor_side(cfg), ASDProcessorSidePrefetcher)

    def test_power5_default(self):
        cfg = ProcessorSidePrefetcherConfig(enabled=True)
        assert isinstance(build_processor_side(cfg), ProcessorSidePrefetcher)

    def test_invalid_engine(self):
        with pytest.raises(ValueError):
            ProcessorSidePrefetcherConfig(engine="oracle").validate()

    def test_lead_bounds(self):
        with pytest.raises(ValueError):
            ProcessorSidePrefetcherConfig(lead=0).validate()
        with pytest.raises(ValueError):
            ProcessorSidePrefetcherConfig(
                lead=16, asd_slh=SLHConfig(table_len=16)
            ).validate()


class TestBehaviour:
    def test_no_prefetch_before_first_epoch(self):
        ps = make(epoch=1000)
        out = []
        for line in range(20):
            out += ps.observe(line, l1_hit=False)
        assert out == []

    def test_prefetches_after_training(self):
        ps = make(epoch=40)
        train_streams(ps)
        reqs = ps.observe(1_000_000, l1_hit=False)
        assert reqs
        assert reqs[0][0] == 1_000_001
        # multi-line lead on stream-heavy histograms
        assert len(reqs) >= 2

    def test_l1_destination_within_l1_lead(self):
        ps = make(epoch=40)
        train_streams(ps)
        reqs = ps.observe(2_000_000, l1_hit=False)
        dests = {line - 2_000_000: to_l1 for line, to_l1 in reqs}
        cfg = ps.config
        for distance, to_l1 in dests.items():
            assert to_l1 == (distance <= cfg.l1_lead)

    def test_suppresses_on_random_workload(self):
        ps = make(epoch=40)
        for i in range(200):
            ps.observe(i * 1000, l1_hit=False)
        out = []
        for i in range(200, 240):
            out += ps.observe(i * 1000, l1_hit=False)
        assert out == []

    def test_advance_on_own_install(self):
        ps = make(epoch=40)
        train_streams(ps)
        base = 3_000_000
        reqs = ps.observe(base, l1_hit=False)
        assert reqs
        ps.notify_fill(base + 1, to_l1=True)
        follow = ps.observe(base + 1, l1_hit=True)  # hit on own install
        assert any(line == base + 2 for line, _ in follow)

    def test_foreign_l1_hits_ignored(self):
        ps = make(epoch=40)
        train_streams(ps)
        assert ps.observe(9_999_999, l1_hit=True) == []

    def test_disabled(self):
        ps = make(enabled=False)
        assert ps.observe(1, l1_hit=False) == []


class TestSystemIntegration:
    def test_ps_asd_config_runs(self):
        from repro import Trace, make_config, simulate

        records = [(5, (1 << 34) + i, False) for i in range(400)]
        result = simulate(make_config("PS_ASD"), Trace(records))
        assert result.cycles > 0
        assert result.stats.get("ps.generated", 0) >= 0

    def test_ps_asd_beats_np_on_streams(self):
        from repro import generate_trace, get_profile, make_config, simulate

        trace = generate_trace(get_profile("milc").workload, 6000, seed=4)
        np_run = simulate(make_config("NP"), trace)
        ps_asd = simulate(make_config("PS_ASD"), trace)
        assert ps_asd.cycles < np_run.cycles
