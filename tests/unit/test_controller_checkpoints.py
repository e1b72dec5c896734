"""Unit tests for the two Prefetch Buffer check points and conflict
accounting in the controller."""


from repro.common.config import (
    ControllerConfig,
    DRAMConfig,
    MemorySidePrefetcherConfig,
)
from repro.common.types import CommandKind, MemoryCommand, Provenance
from repro.controller.controller import MemoryController
from repro.dram.device import DRAMDevice
from repro.prefetch.memory_side import MemorySidePrefetcher


def build(engine="nextline", enabled=True, banks=1):
    dram = DRAMDevice(DRAMConfig(ranks=1, banks_per_rank=banks))
    ms = MemorySidePrefetcher(
        MemorySidePrefetcherConfig(enabled=enabled, engine=engine), threads=1
    )
    completed = []
    mc = MemoryController(
        ControllerConfig(),
        dram,
        ms,
        on_read_complete=lambda cmd, now: completed.append((cmd, now)),
    )
    return mc, completed


def read(line):
    return MemoryCommand(CommandKind.READ, line)


def drain(mc, start=0, limit=20_000):
    now = start
    while not mc.idle():
        mc.tick(now)
        now += 1
        assert now - start < limit
    return now


class TestFirstCheckPoint:
    def test_hit_before_caq(self):
        mc, completed = build()
        mc.ms.buffer.insert(7)
        mc.enqueue(read(7), 0)
        drain(mc)
        assert mc.stats["pb_hits_pre_caq"] == 1
        assert mc.stats["issued_regular"] == 0

    def test_miss_goes_to_dram(self):
        mc, _ = build()
        mc.enqueue(read(7), 0)
        drain(mc)
        assert mc.stats["pb_hits_pre_caq"] == 0
        assert mc.stats["issued_regular"] == 1


class TestSecondCheckPoint:
    def test_data_arriving_while_in_caq_squashes(self):
        # single bank: the second read sits in the CAQ behind the first;
        # meanwhile its line materialises in the Prefetch Buffer
        mc, completed = build(banks=1)
        mc.enqueue(read(0), 0)
        mc.enqueue(read(100), 0)  # same bank -> waits in the CAQ
        # let both move into the CAQ; the first occupies the bank
        for now in range(3):
            mc.tick(now)
        assert len(mc.caq) >= 1
        mc.ms.buffer.insert(100)  # prefetch data "arrives"
        drain(mc, start=3)
        assert mc.stats["pb_hits_caq"] == 1
        assert len(completed) == 2


class TestConflictAccounting:
    def test_blocked_head_read_counts_conflict(self):
        mc, _ = build(banks=1)
        # put a prefetch in flight on the only bank
        pf = MemoryCommand(
            CommandKind.READ, 0, provenance=Provenance.MS_PREFETCH
        )
        mc.ms.lpq.push(pf)
        mc.tick(0)  # prefetch issues (everything else empty: policy 1 ok)
        assert mc.stats["issued_prefetch"] == 1
        # a regular read to the held bank arrives and is blocked
        mc.enqueue(read(100), 1)
        mc.tick(1)
        mc.tick(2)
        assert mc.ms.scheduler.stats["conflicts"] >= 1

    def test_conflict_counted_once_per_command(self):
        mc, _ = build(banks=1)
        pf = MemoryCommand(
            CommandKind.READ, 0, provenance=Provenance.MS_PREFETCH
        )
        mc.ms.lpq.push(pf)
        mc.tick(0)
        mc.enqueue(read(100), 1)
        for now in range(1, 6):
            mc.tick(now)
        assert mc.ms.scheduler.stats["conflicts"] == 1

    def test_delayed_regular_stat(self):
        mc, _ = build(banks=1)
        pf = MemoryCommand(
            CommandKind.READ, 0, provenance=Provenance.MS_PREFETCH
        )
        mc.ms.lpq.push(pf)
        mc.tick(0)
        mc.enqueue(read(100), 1)
        drain(mc, start=1)
        assert mc.stats["delayed_regular"] >= 1

    def test_no_conflicts_without_prefetches(self):
        mc, _ = build(enabled=False, banks=1)
        mc.enqueue(read(0), 0)
        mc.enqueue(read(100), 0)
        drain(mc)
        assert mc.ms.scheduler.stats["conflicts"] == 0
        assert mc.stats["delayed_regular"] == 0


class TestDelayedRegularRefusals:
    """Figure 13's delayed-regular count under ``try_issue``'s refusal
    contract: a refused command's bank holder is asked separately."""

    def test_refusal_behind_prefetch_counts_once(self):
        # p5 engine: one read generates no prefetch of its own
        mc, _ = build(engine="p5", banks=1)
        pf = MemoryCommand(
            CommandKind.READ, 0, provenance=Provenance.MS_PREFETCH
        )
        mc.ms.lpq.push(pf)
        mc.tick(0)  # the prefetch issues and holds the only bank
        held_until = mc.dram.banks[0].held_until
        demand = read(100)
        mc.enqueue(demand, 1)
        for now in range(1, held_until):
            mc.tick(now)
        # refused on every tick from 2 on, counted on the first only
        assert held_until > 3
        assert list(mc.caq) == [demand]
        assert mc.stats["delayed_regular"] == 1
        drain(mc, start=held_until)
        assert mc.stats["delayed_regular"] == 1

    def test_bus_lead_refusal_with_free_bank_does_not_count(self):
        mc, _ = build(engine="p5", banks=32)
        dram = mc.dram
        # a prefetch holds bank 0, demand reads banks 1..14: the data
        # bus is now reserved beyond the lead limit
        dram.try_issue(
            MemoryCommand(CommandKind.READ, 0, provenance=Provenance.MS_PREFETCH), 0
        )
        for line in range(1, 15):
            assert dram.try_issue(read(line), 0) is not None
        assert dram.bus_free_at > 3 + dram.MAX_BUS_LEAD
        demand = read(20)  # bank 20 is free
        mc.enqueue(demand, 1)
        for now in range(1, 4):
            mc.tick(now)
        assert dram.bank_holder(20, 3) is None
        assert dram.bank_holder(0, 3) is Provenance.MS_PREFETCH
        assert list(mc.caq) == [demand]  # refused on ticks 2 and 3
        assert dram.stats["issued"] == 15
        assert mc.stats["delayed_regular"] == 0
