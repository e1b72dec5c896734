"""Unit tests for refresh staggering and lazy catch-up in the device."""


from repro.common.config import DRAMConfig, DRAMTimingConfig
from repro.common.types import CommandKind, MemoryCommand
from repro.dram.device import DRAMDevice


def read(line):
    return MemoryCommand(CommandKind.READ, line)


def make(ranks=2, t_refi=400, t_rfc=34):
    return DRAMDevice(
        DRAMConfig(
            ranks=ranks,
            banks_per_rank=2,
            timing=DRAMTimingConfig(t_refi=t_refi, t_rfc=t_rfc),
        )
    )


class TestStaggering:
    def test_ranks_refresh_at_different_times(self):
        dev = make(ranks=2, t_refi=400)
        assert dev._next_refresh == [400, 600]

    def test_single_rank(self):
        dev = make(ranks=1)
        assert dev._next_refresh == [400]


class TestLazyCatchup:
    def test_multiple_missed_refreshes_all_counted(self):
        dev = make(ranks=1, t_refi=100, t_rfc=20)
        dev.try_issue(read(0), 1000)  # ten deadlines passed
        assert dev.stats["refreshes"] == 10

    def test_refresh_closes_open_rows(self):
        dev = make(ranks=1, t_refi=400)
        dev.try_issue(read(0), 0)
        # a later access to the same row, after a refresh, re-activates
        second_time = 500
        dev.try_issue(read(0), second_time)
        assert dev.stats["activations"] == 2
        assert dev.stats["row_hits"] == 0

    def test_access_between_refreshes_unaffected(self):
        dev = make(ranks=1, t_refi=400, t_rfc=34)
        completion = dev.try_issue(read(0), 50)
        t = dev.timing
        assert completion == 50 + t.t_rcd + t.t_cl + t.burst_cycles

    def test_refresh_does_not_advance_past_now(self):
        dev = make(ranks=1, t_refi=100)
        dev.try_issue(read(0), 250)
        # deadlines at 100, 200 consumed; next pending at 300
        assert dev._next_refresh == [300]
