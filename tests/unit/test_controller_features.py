"""Unit tests for controller extras: RAW forwarding, latency stats,
refresh, and closed-page DRAM."""

import pytest

from repro.common.config import (
    ControllerConfig,
    DRAMConfig,
    DRAMTimingConfig,
    MemorySidePrefetcherConfig,
)
from repro.common.types import CommandKind, MemoryCommand
from repro.controller.controller import MemoryController
from repro.dram.device import DRAMDevice
from repro.prefetch.memory_side import MemorySidePrefetcher


def build(dram_config=None, **ctrl_kw):
    dram = DRAMDevice(dram_config or DRAMConfig())
    ms = MemorySidePrefetcher(MemorySidePrefetcherConfig(enabled=False))
    completed = []
    mc = MemoryController(
        ControllerConfig(**ctrl_kw),
        dram,
        ms,
        on_read_complete=lambda cmd, now: completed.append((cmd, now)),
    )
    return mc, completed


def read(line):
    return MemoryCommand(CommandKind.READ, line)


def write(line):
    return MemoryCommand(CommandKind.WRITE, line)


def drain(mc, start=0, limit=20_000):
    now = start
    while not mc.idle():
        mc.tick(now)
        now += 1
        assert now - start < limit
    return now


class TestRAWForwarding:
    def test_read_forwarded_from_queued_write(self):
        mc, completed = build()
        mc.enqueue(write(5), 0)
        mc.enqueue(read(5), 0)
        drain(mc)
        assert mc.stats["raw_forwards"] == 1
        assert len(completed) == 1

    def test_forwarded_read_is_fast(self):
        mc, completed = build()
        mc.enqueue(write(5), 0)
        mc.enqueue(read(5), 0)
        drain(mc)
        _, when = completed[0]
        assert when <= ControllerConfig().overhead_mc_cycles + 3

    def test_no_forward_after_write_issues(self):
        mc, completed = build()
        mc.enqueue(write(5), 0)
        now = drain(mc)
        mc.enqueue(read(5), now)
        drain(mc, start=now)
        assert mc.stats["raw_forwards"] == 0

    def test_different_line_not_forwarded(self):
        mc, _ = build()
        mc.enqueue(write(5), 0)
        mc.enqueue(read(6), 0)
        drain(mc)
        assert mc.stats["raw_forwards"] == 0

    def test_duplicate_writes_tracked(self):
        mc, _ = build()
        mc.enqueue(write(5), 0)
        mc.enqueue(write(5), 0)
        drain(mc)
        assert not mc._pending_write_lines


class TestLatencyStats:
    def test_latency_recorded_per_read(self):
        mc, _ = build()
        mc.enqueue(read(1), 0)
        mc.enqueue(read(2), 0)
        drain(mc)
        assert mc.stats["lat_cnt_demand"] == 2
        assert mc.stats["lat_sum_demand"] > 0
        assert mc.stats["lat_max_demand"] >= (
            mc.stats["lat_sum_demand"] / 2
        )

    def test_writes_not_in_latency_stats(self):
        mc, _ = build()
        mc.enqueue(write(1), 0)
        drain(mc)
        assert mc.stats["lat_cnt_demand"] == 0


class TestRefresh:
    def timing(self):
        return DRAMTimingConfig(t_refi=200, t_rfc=34)

    def test_refresh_counted(self):
        dev = DRAMDevice(DRAMConfig(timing=self.timing()))
        dev.try_issue(read(0), 1000)
        assert dev.stats["refreshes"] > 0

    def test_refresh_blocks_rank(self):
        cfg = DRAMConfig(ranks=1, banks_per_rank=2, timing=self.timing())
        dev = DRAMDevice(cfg)
        # issue exactly at the refresh deadline: access waits out tRFC
        completion = dev.try_issue(read(0), 200)
        t = self.timing()
        assert completion >= 200 + t.t_rfc + t.t_rcd + t.t_cl

    def test_refresh_disabled_by_default(self):
        dev = DRAMDevice(DRAMConfig())
        dev.try_issue(read(0), 10_000_000)
        assert dev.stats["refreshes"] == 0

    def test_refresh_config_validation(self):
        with pytest.raises(ValueError):
            DRAMTimingConfig(t_refi=10, t_rfc=34).validate()


class TestClosedPage:
    def test_closed_page_never_row_hits(self):
        cfg = DRAMConfig(ranks=1, banks_per_rank=1, row_lines=8,
                         page_policy="closed")
        dev = DRAMDevice(cfg)
        first = dev.try_issue(read(0), 0)
        dev.try_issue(read(0), first + 50)
        assert dev.stats["row_hits"] == 0
        assert dev.stats["activations"] == 2

    def test_open_page_row_hits(self):
        cfg = DRAMConfig(ranks=1, banks_per_rank=1, row_lines=8,
                         page_policy="open")
        dev = DRAMDevice(cfg)
        first = dev.try_issue(read(0), 0)
        dev.try_issue(read(0), first + 50)
        assert dev.stats["row_hits"] == 1

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            DRAMConfig(page_policy="half-open").validate()
