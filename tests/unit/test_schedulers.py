"""Unit tests for the reorder-queue schedulers."""

import pytest

from repro.common.config import DRAMConfig
from repro.common.types import CommandKind, MemoryCommand
from repro.controller.schedulers import (
    AHBScheduler,
    InOrderScheduler,
    MemorylessScheduler,
    build_scheduler,
)
from repro.controller.schedulers.base import Scheduler
from repro.dram.device import DRAMDevice


def read(line, arrival=0):
    return MemoryCommand(CommandKind.READ, line, arrival=arrival)


def device(banks=4):
    return DRAMDevice(DRAMConfig(ranks=1, banks_per_rank=banks))


class TestFactory:
    def test_known_names(self):
        assert isinstance(build_scheduler("in_order"), InOrderScheduler)
        assert isinstance(build_scheduler("memoryless"), MemorylessScheduler)
        assert isinstance(build_scheduler("ahb"), AHBScheduler)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_scheduler("fancy")


class TestInOrder:
    def test_oldest_first_regardless_of_readiness(self):
        dev = device()
        dev.try_issue(read(0), 0)  # bank 0 busy
        old, new = read(0, arrival=1), read(1, arrival=2)
        picked = InOrderScheduler().select([new, old], dev, now=1)
        assert picked is old

    def test_empty(self):
        assert InOrderScheduler().select([], device(), 0) is None


class TestMemoryless:
    def test_prefers_ready_command(self):
        dev = device()
        dev.try_issue(read(0), 0)  # bank 0 busy
        blocked, ready = read(0, arrival=1), read(1, arrival=2)
        picked = MemorylessScheduler().select([blocked, ready], dev, now=1)
        assert picked is ready

    def test_prefers_row_hit_among_ready(self):
        cfg = DRAMConfig(ranks=1, banks_per_rank=2, row_lines=4)
        dev = DRAMDevice(cfg)
        completion = dev.try_issue(read(0), 0)
        now = completion + 1
        row_hit = read(2, arrival=5)  # bank 0, same row
        row_empty = read(1, arrival=1)  # bank 1, must activate
        picked = MemorylessScheduler().select([row_empty, row_hit], dev, now)
        assert picked is row_hit

    def test_falls_back_to_oldest_when_none_ready(self):
        dev = device(banks=1)
        dev.try_issue(read(0), 0)
        a, b = read(0, arrival=3), read(0, arrival=1)
        picked = MemorylessScheduler().select([a, b], dev, now=1)
        assert picked is b


class TestAHB:
    def test_prefers_unvisited_bank(self):
        dev = device()
        sched = AHBScheduler()
        first = sched.select([read(0, 0), read(1, 0)], dev, 0)
        completion = dev.try_issue(first, 0)
        sched.notify_issue(first, dev)
        now = completion + 1
        # row hit outweighs bank history; make both row-empty instead
        cands = [
            read(first.line + 400, arrival=0),  # same bank, new row
            read(first.line + 401, arrival=0),  # different bank, new row
        ]
        picked = sched.select(cands, dev, now)
        assert picked.line == first.line + 401

    def test_age_breaks_ties(self):
        dev = device()
        sched = AHBScheduler()
        a, b = read(0, arrival=1), read(4, arrival=2)  # same bank
        assert sched.select([b, a], dev, 0) is a

    def test_has_issuable_helper(self):
        dev = device(banks=1)
        assert Scheduler.has_issuable([read(0)], dev, 0)
        dev.try_issue(read(0), 0)
        assert not Scheduler.has_issuable([read(0)], dev, 1)
