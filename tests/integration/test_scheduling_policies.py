"""Integration tests: the five LPQ policies driving real issue behaviour.

Unit tests cover the policy predicates; these tests check that pinning
each policy in a live controller produces the expected *issue-order*
behaviour between demand reads and prefetches.
"""


import pytest

from repro.common.config import (
    AdaptiveSchedulingConfig,
    ControllerConfig,
    DRAMConfig,
    MemorySidePrefetcherConfig,
)
from repro.common.types import CommandKind, MemoryCommand, Provenance
from repro.controller.controller import MemoryController
from repro.dram.device import DRAMDevice
from repro.prefetch.memory_side import MemorySidePrefetcher


def build(policy):
    dram = DRAMDevice(DRAMConfig())
    ms_cfg = MemorySidePrefetcherConfig(
        enabled=True,
        engine="nextline",
        scheduling=AdaptiveSchedulingConfig(fixed_policy=policy),
    )
    ms = MemorySidePrefetcher(ms_cfg, threads=1)
    issued = []
    mc = MemoryController(ControllerConfig(), dram, ms)
    original = dram.try_issue

    def spy(cmd, now):
        completion = original(cmd, now)
        if completion is not None:
            issued.append(cmd)
        return completion

    dram.try_issue = spy
    return mc, issued


def drain(mc, start=0, limit=20_000):
    now = start
    while not mc.idle():
        mc.tick(now)
        now += 1
        assert now - start < limit
    return now


def read(line):
    return MemoryCommand(CommandKind.READ, line)


@pytest.mark.parametrize("policy", [1, 2, 3, 4, 5])
def test_prefetches_eventually_issue_under_every_policy(policy):
    mc, issued = build(policy)
    mc.enqueue(read(100), 0)
    drain(mc)
    kinds = [c.provenance for c in issued]
    assert Provenance.MS_PREFETCH in kinds


@pytest.mark.parametrize("policy", [1, 2])
def test_conservative_policies_issue_demand_first(policy):
    """Policies 1-2 also require quiet reorder queues, so a burst of
    demand reads always issues ahead of the prefetches they spawn.
    (Policy 3 only watches the CAQ, so a prefetch may slip into a gap
    while demand still sits in the reorder queues.)"""
    mc, issued = build(policy)
    for line in (100, 300, 500):
        mc.enqueue(read(line), 0)
    drain(mc)
    first_prefetch = next(
        i for i, c in enumerate(issued) if c.provenance is Provenance.MS_PREFETCH
    )
    demand_after = [
        c
        for c in issued[first_prefetch:]
        if c.provenance is not Provenance.MS_PREFETCH
    ]
    # under conservative policies no *initial-burst* demand read queues
    # behind a prefetch (prefetches only issue once the CAQ drained)
    assert len(demand_after) <= 1


def test_policy5_can_issue_prefetch_before_younger_demand():
    """The least conservative policy lets an old prefetch beat a newer
    demand read to DRAM."""
    mc, issued = build(5)
    mc.enqueue(read(100), 0)  # spawns prefetch of 101 at t=0
    mc.tick(0)
    mc.tick(1)
    mc.enqueue(read(500), 10)  # much younger demand
    drain(mc, start=10)
    order = [(c.provenance, c.line) for c in issued]
    pf_pos = order.index((Provenance.MS_PREFETCH, 101))
    demand_pos = order.index((Provenance.DEMAND, 500))
    assert pf_pos < demand_pos


def test_adaptive_policy_stays_within_bounds():
    dram = DRAMDevice(DRAMConfig())
    ms = MemorySidePrefetcher(
        MemorySidePrefetcherConfig(enabled=True, engine="nextline"), threads=1
    )
    mc = MemoryController(ControllerConfig(), dram, ms)
    now = 0
    for burst in range(20):
        for line in range(burst * 50, burst * 50 + 5):
            while not mc.enqueue(read(line), now):
                mc.tick(now)
                now += 1
        for _ in range(200):
            mc.tick(now)
            now += 1
        assert 1 <= ms.scheduler.policy <= 5
