"""Unit tests for Adaptive Scheduling (the five policies + adaptation)."""


from repro.common.config import AdaptiveSchedulingConfig
from repro.prefetch.adaptive_scheduling import AdaptiveScheduler, lpq_may_issue


def allows(
    policy,
    caq_len=0,
    caq_head_arrival=None,
    reorder_empty=True,
    reorder_has_issuable=False,
    lpq_len=1,
    lpq_full=False,
    lpq_head_arrival=0,
):
    """lpq_may_issue on one queue snapshot; an LPQ of depth 3."""
    depth = 3
    return lpq_may_issue(
        policy,
        caq_len,
        caq_head_arrival,
        depth if lpq_full else lpq_len,
        depth,
        lpq_head_arrival,
        reorder_empty,
        lambda: reorder_has_issuable,
    )


class TestPolicies:
    def test_policy1_requires_everything_empty(self):
        assert allows(1)
        assert not allows(1, reorder_empty=False)
        assert not allows(1, caq_len=1, caq_head_arrival=5)

    def test_policy2_allows_unissuable_reorder_commands(self):
        assert allows(2, reorder_empty=False, reorder_has_issuable=False)
        assert not allows(2, reorder_empty=False, reorder_has_issuable=True)

    def test_policy3_only_needs_empty_caq(self):
        assert allows(3, reorder_empty=False, reorder_has_issuable=True)
        assert not allows(3, caq_len=1, caq_head_arrival=5)

    def test_policy4_one_caq_entry_and_full_lpq(self):
        assert allows(4, caq_len=1, caq_head_arrival=5, lpq_full=True)
        assert not allows(4, caq_len=1, caq_head_arrival=5, lpq_full=False)
        assert not allows(4, caq_len=2, caq_head_arrival=5, lpq_full=True)

    def test_policy5_timestamp_comparison(self):
        assert allows(5, caq_len=1, caq_head_arrival=10, lpq_head_arrival=5)
        assert not allows(5, caq_len=1, caq_head_arrival=3, lpq_head_arrival=5)

    def test_policies_monotone_when_caq_empty(self):
        # with an empty CAQ and empty reorder queues, every policy allows
        assert all(allows(k) for k in range(1, 6))

    def test_conservative_ordering_example(self):
        # a busy system: only the aggressive policies allow issue
        busy = dict(
            caq_len=1,
            caq_head_arrival=10,
            reorder_empty=False,
            reorder_has_issuable=True,
            lpq_head_arrival=1,
        )
        assert [allows(k, **busy) for k in range(1, 6)] == [
            False, False, False, False, True
        ]

    def test_issuable_scan_only_runs_for_policy2(self):
        # the reorder scan is costly: only policy 2 with an empty CAQ
        # and occupied reorder queues may ask for it
        calls = []

        def scan():
            calls.append(1)
            return False

        for policy in range(1, 6):
            for caq_len, reorder_empty in ((0, True), (0, False), (1, False)):
                lpq_may_issue(policy, caq_len, 5, 1, 3, 0, reorder_empty, scan)
        assert len(calls) == 1


class TestAdaptiveScheduler:
    def make(self, **kw):
        return AdaptiveScheduler(AdaptiveSchedulingConfig(**kw))

    def test_initial_policy(self):
        assert self.make(initial_policy=3).policy == 3

    def test_empty_lpq_never_allows(self):
        s = self.make()
        assert not allows(s.policy, lpq_len=0)
        assert not any(allows(k, lpq_len=0) for k in range(1, 6))

    def test_many_conflicts_step_conservative(self):
        s = self.make(raise_threshold=5, lower_threshold=1, initial_policy=3)
        s.record_conflict(10)
        s.epoch_update()
        assert s.policy == 2

    def test_few_conflicts_step_aggressive(self):
        s = self.make(raise_threshold=5, lower_threshold=3, initial_policy=3)
        s.record_conflict(1)
        s.epoch_update()
        assert s.policy == 4

    def test_policy_bounded_one_to_five(self):
        s = self.make(raise_threshold=5, lower_threshold=1, initial_policy=1)
        s.record_conflict(100)
        s.epoch_update()
        assert s.policy == 1
        s = self.make(raise_threshold=5, lower_threshold=3, initial_policy=5)
        s.epoch_update()
        assert s.policy == 5

    def test_conflicts_reset_each_epoch(self):
        s = self.make(raise_threshold=5, lower_threshold=0, initial_policy=3)
        s.record_conflict(10)
        s.epoch_update()
        assert s.conflicts_this_epoch == 0
        s.epoch_update()  # zero conflicts but lower_threshold=0: no step
        assert s.policy == 2

    def test_fixed_policy_never_adapts(self):
        s = self.make(fixed_policy=4)
        s.record_conflict(1000)
        s.epoch_update()
        assert s.policy == 4

    def test_midband_holds_policy(self):
        s = self.make(raise_threshold=10, lower_threshold=2, initial_policy=3)
        s.record_conflict(5)
        s.epoch_update()
        assert s.policy == 3

    def test_stats_track_epochs(self):
        s = self.make()
        s.epoch_update()
        s.epoch_update()
        assert s.stats["epochs"] == 2
