"""Unit tests for the core's fast-forward contract.

``linear_horizon`` promises that the next N ticks are linear —
they only burn stall/gap budget — and ``consume_wait`` applies those
N ticks in one arithmetic step.  These tests pin the promise: ticking
per-cycle and consuming the wait in bulk must leave two identical
cores in identical states.
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import (
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DRAMConfig,
    HierarchyConfig,
    MemorySidePrefetcherConfig,
    ProcessorSidePrefetcherConfig,
)
from repro.controller.controller import MemoryController
from repro.cpu.core import Core
from repro.dram.device import DRAMDevice
from repro.prefetch.memory_side import MemorySidePrefetcher
from repro.prefetch.processor_side import ProcessorSidePrefetcher
from repro.workloads.trace import Trace


def build_core(records, mlp=2):
    hierarchy = CacheHierarchy(
        HierarchyConfig(
            l1=CacheConfig(256, 2, latency=1),
            l2=CacheConfig(512, 2, latency=10),
            l3=CacheConfig(1024, 2, latency=50),
        )
    )
    ms = MemorySidePrefetcher(MemorySidePrefetcherConfig(enabled=False))
    controller = MemoryController(
        ControllerConfig(), DRAMDevice(DRAMConfig()), ms
    )
    ps = ProcessorSidePrefetcher(ProcessorSidePrefetcherConfig(enabled=False))
    core = Core(CoreConfig(mlp=mlp), hierarchy, ps, controller, [Trace(records)])
    return core, controller


def core_state(core):
    return (
        core.retired_instructions,
        dict(core.stats.raw()),
        [
            (ctx.stall_cpu, ctx.gap_cpu, ctx.blocked_mem, ctx.trace_done)
            for ctx in core.contexts
        ],
    )


class TestLinearHorizon:
    def test_long_gap_gives_positive_horizon(self):
        core, mc = build_core([(8000, 100, False)])
        mc.tick(0)
        core.tick(0)  # fetches the record, loads its gap budget
        horizon = core.linear_horizon()
        assert horizon is not None and horizon > 0

    def test_pure_gap_horizon_counts_whole_ticks_of_gap(self):
        # a thread burning only instruction gap may skip every whole MC
        # tick of the gap it has left
        core, mc = build_core([(10_000, 100, False)])
        mc.tick(0)
        core.tick(0)
        (ctx,) = core.contexts
        assert ctx.stall_cpu == 0
        assert ctx.gap_cpu > core.budget_per_thread
        assert core.linear_horizon() == ctx.gap_cpu // core.budget_per_thread

    def test_all_blocked_is_unbounded(self):
        # mlp=1: the second access blocks behind the first miss, so the
        # only wake-up is a read completion — an event, not a horizon
        core, mc = build_core([(0, 100, False), (0, 200, False)], mlp=1)
        for now in range(3):
            mc.tick(now)
            core.tick(now)
        assert any(ctx.blocked_mem for ctx in core.contexts)
        assert core.linear_horizon() is None

    def test_drained_core_is_unbounded(self):
        core, mc = build_core([(0, 100, False)])
        now = 0
        while not (core.done and mc.idle()):
            mc.tick(now)
            core.tick(now)
            now += 1
        assert core.linear_horizon() is None


class TestConsumeWait:
    def test_matches_per_cycle_ticks(self):
        # two identical cores, same fetch; one ticks per cycle, one
        # consumes the whole horizon at once — states must match
        records = [(4000, 100, False), (0, 200, False)]
        core_a, mc_a = build_core(records)
        core_b, mc_b = build_core(records)
        for core, mc in ((core_a, mc_a), (core_b, mc_b)):
            mc.tick(0)
            core.tick(0)
        horizon = core_a.linear_horizon()
        assert horizon == core_b.linear_horizon()
        assert horizon > 0
        for now in range(1, 1 + horizon):
            mc_a.tick(now)
            core_a.tick(now)
        core_b.consume_wait(horizon)
        assert core_state(core_a) == core_state(core_b)

    def test_blocked_thread_accrues_memory_stall(self):
        core, mc = build_core([(0, 100, False), (0, 200, False)], mlp=1)
        for now in range(3):
            mc.tick(now)
            core.tick(now)
        assert any(ctx.blocked_mem for ctx in core.contexts)
        before = core.stats["stall_cycles_mem"]
        core.consume_wait(5)
        expected = 5 * core.budget_per_thread
        assert core.stats["stall_cycles_mem"] == before + expected

    def test_drained_thread_burns_nothing(self):
        core, mc = build_core([(0, 100, False)])
        now = 0
        while not (core.done and mc.idle()):
            mc.tick(now)
            core.tick(now)
            now += 1
        before = core_state(core)
        core.consume_wait(7)
        assert core_state(core) == before
