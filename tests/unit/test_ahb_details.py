"""Deeper unit tests for the AHB scheduler's history behaviour."""


from repro.common.config import DRAMConfig
from repro.common.types import CommandKind, MemoryCommand
from repro.controller.schedulers import AHBScheduler
from repro.dram.device import DRAMDevice


def read(line, arrival=0):
    return MemoryCommand(CommandKind.READ, line, arrival=arrival)


def write(line, arrival=0):
    return MemoryCommand(CommandKind.WRITE, line, arrival=arrival)


def quiet_device(banks=8):
    return DRAMDevice(DRAMConfig(ranks=1, banks_per_rank=banks))


class TestBurstGrouping:
    def test_prefers_same_kind_as_last_issue(self):
        dev = quiet_device()
        sched = AHBScheduler()
        first = read(0, arrival=0)
        dev.try_issue(first, 0)
        sched.notify_issue(first, dev)
        now = 60  # everything quiet again
        # same age, different kinds, different (fresh) banks
        r = read(101, arrival=5)
        w = write(102, arrival=5)
        assert sched.select([w, r], dev, now) is r

    def test_grouping_flips_after_a_write(self):
        dev = quiet_device()
        sched = AHBScheduler()
        first = write(0, arrival=0)
        dev.try_issue(first, 0)
        sched.notify_issue(first, dev)
        now = 60
        r = read(101, arrival=5)
        w = write(102, arrival=5)
        assert sched.select([r, w], dev, now) is w


class TestBankHistory:
    def test_recent_banks_deprioritised(self):
        dev = quiet_device()
        sched = AHBScheduler()
        for line in (0, 1, 2, 3):
            cmd = read(line)
            dev.try_issue(cmd, line)
            sched.notify_issue(cmd, dev)
        now = 100
        # bank 0 is in history; bank 5 is not; both would be activates
        recent = read(800, arrival=1)  # 800 % 8 == 0
        fresh = read(805, arrival=1)  # bank 5
        assert sched.select([recent, fresh], dev, now) is fresh

    def test_history_window_bounded(self):
        dev = quiet_device()
        sched = AHBScheduler()
        # issue 8 commands; only the last HISTORY banks stay penalised
        for line in range(8):
            cmd = read(line)
            dev.try_issue(cmd, line * 20)
            sched.notify_issue(cmd, dev)
        assert len(sched._recent_banks) == AHBScheduler.HISTORY


class TestReadiness:
    def test_ready_row_hit_dominates_everything(self):
        cfg = DRAMConfig(ranks=1, banks_per_rank=2, row_lines=8)
        dev = DRAMDevice(cfg)
        sched = AHBScheduler()
        first = read(0)
        completion = dev.try_issue(first, 0)
        sched.notify_issue(first, dev)
        now = completion + 5
        row_hit = read(2, arrival=9)  # same bank+row as line 0
        fresh_bank = read(1, arrival=1)  # older, different bank, activate
        assert sched.select([fresh_bank, row_hit], dev, now) is row_hit
