"""Adaptive Scheduling (paper Section 3.5).

The Final Scheduler must decide, each cycle, whether the head of the Low
Priority Queue may issue instead of the head of the CAQ.  The paper
defines five policies in decreasing order of conservativeness; a
prefetch command may issue only if:

1. the CAQ is empty **and** the Reorder Queues are empty;
2. the CAQ is empty **and** the Reorder Queues hold no issuable command;
3. the CAQ is empty;
4. the CAQ holds at most one entry **and** the LPQ is full;
5. the head of the LPQ has an earlier timestamp than the head of the CAQ.

Rather than fixing one policy at design time, Adaptive Scheduling tracks
how often a regular command was blocked by the memory-system footprint
of a previously issued prefetch, and once per epoch steps the active
policy toward conservative (on many conflicts) or aggressive (on few).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.config import AdaptiveSchedulingConfig
from repro.common.stats import Stats
from repro.telemetry.events import PolicyChange
from repro.telemetry.tracer import NULL_TRACER, Tracer


def lpq_may_issue(
    policy: int,
    caq_len: int,
    caq_head_arrival: Optional[int],
    lpq_len: int,
    lpq_depth: int,
    lpq_head_arrival: int,
    reorder_empty: bool,
    reorder_has_issuable: Callable[[], bool],
) -> bool:
    """May the LPQ head issue instead of the CAQ head under ``policy``?

    The one encoding of the five policies, called by the Final
    Scheduler every cycle the LPQ holds a command and by the
    event-driven loop's wait detection.  Arrivals are MC-cycle
    timestamps; ``caq_head_arrival`` is only read when the CAQ is
    occupied.  ``reorder_has_issuable`` scans every reorder candidate
    against DRAM timing, so it is a callable that only policy 2 calls,
    and only when the CAQ is empty and the reorder queues are not.
    """
    if lpq_len == 0:
        return False
    if caq_len == 0:
        if policy == 1:
            return reorder_empty
        if policy == 2:
            return reorder_empty or not reorder_has_issuable()
        return True
    if policy == 4:
        return caq_len == 1 and lpq_len >= lpq_depth
    if policy == 5:
        return lpq_head_arrival < caq_head_arrival
    return False


class AdaptiveScheduler:
    """Selects and adapts the LPQ prioritisation policy.

    ``record_conflict`` is called by the controller whenever a regular
    command is first found blocked by a bank held by an in-flight
    memory-side prefetch; ``epoch_update`` is called at every SLH epoch
    boundary (the paper reuses the SLH epoch for policy adaptation).
    """

    def __init__(
        self,
        config: AdaptiveSchedulingConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: MC cycle of the surrounding epoch boundary (event timestamps)
        self.now_mc = 0
        if config.fixed_policy is not None:
            self.policy = config.fixed_policy
        else:
            self.policy = config.initial_policy
        self.conflicts_this_epoch = 0
        self.stats = Stats()

    # ------------------------------------------------------------------
    def record_conflict(self, count: int = 1) -> None:
        self.conflicts_this_epoch += count
        self.stats.bump("conflicts", count)

    def epoch_update(self) -> None:
        """Adapt the policy once per epoch from the conflict count."""
        conflicts = self.conflicts_this_epoch
        self.conflicts_this_epoch = 0
        self.stats.bump("epochs")
        if self.config.fixed_policy is not None:
            return
        old_policy = self.policy
        if conflicts > self.config.raise_threshold and self.policy > 1:
            self.policy -= 1
            self.stats.bump("steps_conservative")
        elif conflicts < self.config.lower_threshold and self.policy < 5:
            self.policy += 1
            self.stats.bump("steps_aggressive")
        self.stats.bump(f"epochs_at_policy_{self.policy}")
        if self.policy != old_policy and self.tracer.enabled:
            self.tracer.emit(
                PolicyChange(
                    t=self.now_mc,
                    old_policy=old_policy,
                    new_policy=self.policy,
                    conflicts=conflicts,
                )
            )
