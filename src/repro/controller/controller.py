"""The Power5+-style memory controller with the embedded MS prefetcher.

Data path per MC cycle (paper Figures 1 and 4):

1. completions whose data transfer finished are delivered;
2. the **Final Scheduler** issues at most one command to DRAM, picking
   between the CAQ head and the LPQ head under the active Adaptive
   Scheduling policy — after re-checking the CAQ head against the
   Prefetch Buffer (the paper's second check point);
3. the **scheduler** moves at most one reorder-queue command into the
   CAQ — reads are checked against the Prefetch Buffer first (the
   paper's first check point) and squashed on a hit.

Reads entering the controller are forked into the Stream Filter before
any buffering, writes invalidate matching Prefetch Buffer entries, and
conflicts between regular commands and in-flight prefetches are counted
for Adaptive Scheduling and for Figure 13's "delayed regular commands".
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, List, Optional, Set, Tuple

from repro.common.config import ControllerConfig
from repro.common.stats import Stats
from repro.common.types import MemoryCommand, Provenance
from repro.controller.queues import CommandQueue, ReorderQueues
from repro.controller.schedulers import build_scheduler
from repro.controller.schedulers.base import Scheduler
from repro.dram.device import DRAMDevice
from repro.prefetch.adaptive_scheduling import lpq_may_issue
from repro.prefetch.memory_side import MemorySidePrefetcher
from repro.telemetry.events import QueueDepthSample
from repro.telemetry.tracer import NULL_TRACER, Tracer

#: Called with (cmd, now) when a read's data is available to the chip.
ReadCallback = Callable[[MemoryCommand, int], None]

#: Ticks between QueueDepthSample events on an enabled tracer.
QUEUE_SAMPLE_INTERVAL = 256

# enum members bound once (docs/performance.md, hot-path conventions)
_PS_PREFETCH = Provenance.PS_PREFETCH
_MS_PREFETCH = Provenance.MS_PREFETCH

#: Order of the per-provenance counter-name tables below.  Only regular
#: reads reach completion delivery and the Prefetch Buffer check points,
#: so the hot path indexes the tables with ``provenance is _PS_PREFETCH``
#: (0 for demand, 1 for a processor-side prefetch) instead of hashing
#: the enum member.
_TABLE_ORDER = (Provenance.DEMAND, _PS_PREFETCH, _MS_PREFETCH)

#: Latency counter names, precomputed so completion delivery (one of the
#: hottest paths) never builds strings.  The histogram entry is indexed
#: by ``latency.bit_length()``: bucket b counts latencies in
#: [2^b, 2^(b+1)), and bucket 0 also holds 0-cycle responses, so
#: indices 0 and 1 both name bucket 0.
# lint: stat-prefixes(lat_sum_, lat_cnt_, lat_max_, lat_hist_)
_LAT_KEYS = tuple(
    (
        f"lat_sum_{prov.value}",
        f"lat_cnt_{prov.value}",
        f"lat_max_{prov.value}",
        tuple(f"lat_hist_{prov.value}_{max(b - 1, 0)}" for b in range(65)),
    )
    for prov in _TABLE_ORDER
)

#: Prefetch Buffer hit and merge counter names.
_PB_HIT_KEYS = tuple(f"pb_hits_{prov.value}" for prov in _TABLE_ORDER)
_PB_MERGE_KEYS = tuple(f"pb_merges_{prov.value}" for prov in _TABLE_ORDER)


class MemoryController:
    """Reorder queues -> scheduler -> CAQ -> Final Scheduler -> DRAM."""

    def __init__(
        self,
        config: ControllerConfig,
        dram: DRAMDevice,
        prefetcher: MemorySidePrefetcher,
        cpu_ratio: int = 8,
        on_read_complete: Optional[ReadCallback] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.dram = dram
        self.ms = prefetcher
        self.cpu_ratio = cpu_ratio
        self.on_read_complete = on_read_complete
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: set by the core: callable returning outstanding demand misses
        self.core_depth_probe: Optional[Callable[[], int]] = None
        self.queues = ReorderQueues(config.read_queue_depth, config.write_queue_depth)
        self.caq = CommandQueue(config.caq_depth, "CAQ")
        self.scheduler: Scheduler = build_scheduler(config.scheduler)
        self._completions: List[Tuple[int, int, MemoryCommand]] = []
        self._conflict_counted: Set[int] = set()
        self._delayed_counted: Set[int] = set()
        # lines with a write queued (reorder queue or CAQ): reads to
        # these lines are answered by store-forwarding, not DRAM
        self._pending_write_lines: Counter = Counter()
        self._now = 0
        self.ms.on_merge_ready = self._merge_ready
        self.stats = Stats()
        # hot path: the per-cycle occupancy integrals add straight into
        # the underlying counter mapping (see Stats.raw), and the queue
        # containers are aliased so a length probe is one len() call
        self._stat_values = self.stats.raw()
        self._rq_items = self.queues.reads._items
        self._wq_items = self.queues.writes._items
        self._caq_items = self.caq._items
        self._lpq_items = self.ms.lpq._queue
        # the MS block's tick only expires Stream Filter slots and keeps
        # telemetry clocks; both conditions are fixed at construction
        # (Tracer.enabled is read-only), so skip the call when neither
        # holds
        self._tick_ms = prefetcher._tick_engine or prefetcher.tracer.enabled
        self._pb_hit_delay = config.pb_hit_latency_mc + config.overhead_mc_cycles

    # ------------------------------------------------------------------
    # command entry
    # ------------------------------------------------------------------
    def can_accept_read(self) -> bool:
        return not self.queues.reads.full

    def can_accept_write(self) -> bool:
        return not self.queues.writes.full

    def enqueue(self, cmd: MemoryCommand, now: int) -> bool:
        """Admit a command into the reorder queues; False means retry."""
        values = self._stat_values
        if cmd.is_read:
            if len(self._rq_items) >= self.queues.reads.depth:
                values["read_rejects"] += 1
                return False
            cmd.arrival = now
            values["reads_arrived"] += 1
            if cmd.provenance is _PS_PREFETCH:
                values["reads_ps"] += 1
            else:
                values["reads_demand"] += 1
            # Figure 4: Reads fork into the Stream Filter on entry.
            self.ms.observe_read(cmd, now, now * self.cpu_ratio)
            self._rq_items.append(cmd)
            return True
        if len(self._wq_items) >= self.queues.writes.depth:
            values["write_rejects"] += 1
            return False
        cmd.arrival = now
        values["writes_arrived"] += 1
        self.ms.observe_write(cmd)
        self._wq_items.append(cmd)
        self._pending_write_lines[cmd.line] += 1
        return True

    # ------------------------------------------------------------------
    # per-cycle work
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        self._now = now
        completions = self._completions
        if completions and completions[0][0] <= now:
            self._deliver_completions(now)
        if self._tick_ms:
            self.ms.tick(now * self.cpu_ratio, now)
        if self._caq_items or self._lpq_items:
            self._final_scheduler(now)
        if self._rq_items or self._wq_items:
            self._reorder_to_caq(now)
        # occupancy integrals: averages fall out as sum / ticks.  Every
        # simulated MC cycle lands here or in bulk_tick, so the
        # integrals cover wall-cycle time, not just executed ticks.
        values = self._stat_values
        values["ticks"] += 1
        values["occ_read_queue"] += len(self._rq_items)
        values["occ_write_queue"] += len(self._wq_items)
        values["occ_caq"] += len(self._caq_items)
        values["occ_lpq"] += len(self._lpq_items)
        if self.tracer.enabled and now % QUEUE_SAMPLE_INTERVAL == 0:
            self._emit_depth_sample(now)

    def tick_reference(self, now: int) -> None:
        """The literal per-cycle tick — one MC cycle's executable
        specification, matching the pre-fast-forward main loop: every
        pipeline stage is invoked unconditionally, the integrals go
        through the Stats API, and the MS block's clocks and engine
        tick every cycle.  ``run(loop="reference")`` steps the machine
        exclusively through this path; the guarded :meth:`tick` plus
        :meth:`bulk_tick` must land in exactly the same state (the
        golden equality test pins that)."""
        self._now = now
        self._deliver_completions(now)
        self.ms.tick_reference(now * self.cpu_ratio, now)
        self._final_scheduler(now)
        self._reorder_to_caq(now)
        # occupancy integrals: averages fall out as sum / ticks
        bump = self.stats.bump
        bump("ticks")
        bump("occ_read_queue", len(self.queues.reads))
        bump("occ_write_queue", len(self.queues.writes))
        bump("occ_caq", len(self.caq))
        bump("occ_lpq", len(self.ms.lpq))
        if self.tracer.enabled and now % QUEUE_SAMPLE_INTERVAL == 0:
            self._emit_depth_sample(now)

    def _emit_depth_sample(self, t: int) -> None:
        probe = self.core_depth_probe
        self.tracer.emit(
            QueueDepthSample(
                t=t,
                read_queue=len(self.queues.reads),
                write_queue=len(self.queues.writes),
                caq=len(self.caq),
                lpq=len(self.ms.lpq),
                core_outstanding=probe() if probe is not None else 0,
            )
        )

    # -- event-driven fast-forward support -------------------------------
    def bulk_tick(self, start: int, cycles: int) -> None:
        """Account ``cycles`` provably-inert MC cycles ``[start, start+cycles)``.

        The event-driven main loop calls this instead of ticking
        through a deterministic wait.  Queue contents are constant
        across such a window by construction, so the occupancy
        integrals are one multiplication each, and the telemetry
        samples a per-cycle loop would have emitted at
        ``QUEUE_SAMPLE_INTERVAL`` boundaries are emitted here with the
        (constant) depths — a fast-forward jump leaves no holes in the
        queue-depth series.
        """
        end = start + cycles - 1
        self._now = end
        if self._tick_ms:
            self.ms.tick(end * self.cpu_ratio, end)
        if self._rq_items and self.ms.enabled:
            # CAQ-full wait: _reorder_to_caq still probes the oldest
            # read for a prefetch-held bank every cycle.  The hold is
            # monotone (held_until is frozen mid-wait), so the first
            # window cycle decides the whole window.
            self._note_held_read(start)
        values = self._stat_values
        values["ticks"] += cycles
        values["occ_read_queue"] += len(self._rq_items) * cycles
        values["occ_write_queue"] += len(self._wq_items) * cycles
        values["occ_caq"] += len(self._caq_items) * cycles
        values["occ_lpq"] += len(self._lpq_items) * cycles
        if self.tracer.enabled:
            first = start + (-start) % QUEUE_SAMPLE_INTERVAL
            for t in range(first, end + 1, QUEUE_SAMPLE_INTERVAL):
                self._emit_depth_sample(t)

    def next_scheduler_event(
        self, now: int
    ) -> Tuple[Optional[int], Optional[MemoryCommand]]:
        """Earliest cycle at which the Final Scheduler could act.

        Pure query, only valid while the reorder->CAQ stage is frozen —
        reorder queues empty, or the CAQ full (the caller checks).
        Returns ``(cycle, refused)``:

        * ``(None, None)`` — the scheduler cannot act until some other
          event (a completion) changes machine state;
        * ``(-1, None)`` — the very next tick may act (Prefetch Buffer
          check point would fire); do not fast-forward;
        * ``(t, cmd)`` — the pending CAQ/LPQ head ``cmd`` clears DRAM's
          bank and bus constraints at cycle ``t``; every cycle before
          ``t`` is a deterministic wait.  ``cmd`` records that a
          per-cycle loop would have attempted (and been refused) DRAM
          issue each cycle — the fast-forward path mirrors the lazy
          refresh application and the first refusal's Figure-13
          accounting (see :meth:`note_wait_refusal`).
        """
        caq_items = self._caq_items
        lpq_items = self._lpq_items
        if not (caq_items or lpq_items):
            return None, None
        ms = self.ms
        if caq_items:
            caq_head = caq_items[0]
            if caq_head.is_read and ms.would_serve(caq_head.line):
                return -1, None
        cmd = self._final_choice(caq_items, lpq_items)
        if cmd is None:
            return None, None
        return self.dram.earliest_issue_cycle(cmd), cmd

    def note_wait_refusal(self, cmd: MemoryCommand, now: int) -> None:
        """Replicate the first refused ``try_issue`` of a wait window.

        A per-cycle loop retries the refused head every wait cycle; the
        only side effect of those refusals is the Figure-13
        delayed-regular count, and it can fire only on the *first* wait
        cycle (a bank hold by a prefetch never appears mid-wait —
        ``held_until`` is frozen until the next issue).  The event-driven
        loop calls this once per fast-forward jump with the first
        skipped cycle.
        """
        self._count_refusal(cmd, now)

    def _count_refusal(self, cmd: MemoryCommand, now: int) -> None:
        """Figure 13: count a regular command that DRAM refused while a
        memory-side prefetch held its bank, once per command.  A refusal
        by the bus-lead limit alone finds the bank free and does not
        count."""
        if cmd.is_ms_prefetch or cmd.uid in self._delayed_counted:
            return
        if self.dram.bank_holder(cmd.line, now) is _MS_PREFETCH:
            self._delayed_counted.add(cmd.uid)
            self._stat_values["delayed_regular"] += 1

    def _deliver_completions(self, now: int) -> None:
        completions = self._completions
        values = self._stat_values
        while completions and completions[0][0] <= now:
            cmd = heapq.heappop(completions)[2]
            if cmd.is_ms_prefetch:
                self.ms.notify_complete(cmd)
            elif cmd.is_read:
                latency = now - cmd.arrival
                k_sum, k_cnt, k_max, k_hist = _LAT_KEYS[
                    cmd.provenance is _PS_PREFETCH
                ]
                values[k_sum] += latency  # lint: stats-dynamic
                values[k_cnt] += 1  # lint: stats-dynamic
                if latency > values.get(k_max, 0):
                    values[k_max] = latency  # lint: stats-dynamic
                values[k_hist[latency.bit_length()]] += 1  # lint: stats-dynamic
                if self.on_read_complete is not None:
                    self.on_read_complete(cmd, now)

    def _respond_at(self, cmd: MemoryCommand, when: int) -> None:
        heapq.heappush(self._completions, (when, cmd.uid, cmd))

    def _merge_ready(self, cmd: MemoryCommand) -> None:
        """A read merged with an in-flight prefetch got its data."""
        self.stats.bump("merged_responses")
        self._respond_at(cmd, self._now + self.config.overhead_mc_cycles)

    # -- Final Scheduler ------------------------------------------------
    def _final_scheduler(self, now: int) -> None:
        ms = self.ms
        caq_items = self._caq_items
        values = self._stat_values
        # Second Prefetch Buffer check: the head of the CAQ may have been
        # covered by a prefetch that completed while it sat in the queue.
        # (A disabled MS block never hits or merges.)
        while caq_items and ms.enabled:
            head = caq_items[0]
            if not head.is_read:
                break
            if ms.read_lookup(head.line):
                caq_items.popleft()
                values["pb_hits_caq"] += 1
                values[_PB_HIT_KEYS[head.provenance is _PS_PREFETCH]] += 1
                self._delayed_counted.discard(head.uid)
                self._respond_at(head, now + self._pb_hit_delay)
            elif ms.try_merge(head):
                caq_items.popleft()
                values["pb_merges_caq"] += 1
                values[_PB_MERGE_KEYS[head.provenance is _PS_PREFETCH]] += 1
                self._delayed_counted.discard(head.uid)
            else:
                break

        lpq_items = self._lpq_items
        cmd = self._final_choice(caq_items, lpq_items)
        if cmd is None:
            return
        completion = self.dram.try_issue(cmd, now)
        if completion is not None:
            # the LPQ holds only memory-side prefetches, the CAQ none
            from_lpq = cmd.is_ms_prefetch
            if from_lpq:
                ms.lpq.pop()
            else:
                caq_items.popleft()
            self.scheduler.notify_issue(cmd, self.dram)
            self._respond_at(cmd, completion + self.config.overhead_mc_cycles)
            if from_lpq:
                ms.notify_issue(cmd)
                values["issued_prefetch"] += 1
                return
            if cmd.is_write:
                count = self._pending_write_lines.get(cmd.line, 0)
                if count <= 1:
                    self._pending_write_lines.pop(cmd.line, None)
                else:
                    self._pending_write_lines[cmd.line] = count - 1
            values["issued_regular"] += 1
            self._delayed_counted.discard(cmd.uid)
        else:
            self._count_refusal(cmd, now)

    def _final_choice(self, caq_items, lpq_items) -> Optional[MemoryCommand]:
        """The CAQ or LPQ head the Final Scheduler offers DRAM, if any."""
        if not lpq_items:
            return caq_items[0] if caq_items else None
        ms = self.ms
        if caq_items:
            caq_len = len(caq_items)
            caq_head = caq_items[0]
            caq_head_arrival = caq_head.arrival
        else:
            caq_len = 0
            caq_head = caq_head_arrival = None
        lpq_head = lpq_items[0]
        if ms.enabled and lpq_may_issue(
            ms.scheduler.policy,
            caq_len,
            caq_head_arrival,
            len(lpq_items),
            ms.lpq.depth,
            lpq_head.arrival,
            not (self._rq_items or self._wq_items),
            self._reorder_has_issuable,
        ):
            return lpq_head
        return caq_head

    def _reorder_has_issuable(self) -> bool:
        """Adaptive Scheduling policy 2's reorder-queue predicate."""
        drain = len(self._wq_items) >= self.config.write_drain_threshold
        return Scheduler.has_issuable(
            self.queues.candidates(drain), self.dram, self._now
        )

    # -- reorder queues -> CAQ -------------------------------------------
    def _note_held_read(self, now: int) -> None:
        """Adaptive Scheduling feedback: the oldest read being held off
        the CAQ by a bank occupied by an in-flight prefetch is a
        conflict, counted once per read while it sits in the reorder
        queue."""
        head_read = self._rq_items[0]
        if (
            head_read.uid not in self._conflict_counted
            and self.dram.bank_holder(head_read.line, now) is _MS_PREFETCH
        ):
            self._conflict_counted.add(head_read.uid)
            self.ms.scheduler.record_conflict()

    def _reorder_to_caq(self, now: int) -> None:
        rq_items = self._rq_items
        wq_items = self._wq_items
        ms = self.ms
        if rq_items:
            if ms.enabled:
                self._note_held_read(now)
        elif not wq_items:
            return

        caq_items = self._caq_items
        if len(caq_items) >= self.caq.depth:
            return
        drain = len(wq_items) >= self.config.write_drain_threshold
        cmd = self.scheduler.select(self.queues.candidates(drain), self.dram, now)
        if cmd is None:
            return
        if cmd.is_write:
            wq_items.remove(cmd)
            caq_items.append(cmd)
            return
        rq_items.remove(cmd)
        # the read leaves the reorder queue, so its conflict mark retires
        self._conflict_counted.discard(cmd.uid)
        values = self._stat_values
        if cmd.line in self._pending_write_lines:
            # read-after-write hazard: the freshest data for this
            # line sits in the write queue — forward it
            values["raw_forwards"] += 1
            self._respond_at(cmd, now + self.config.overhead_mc_cycles)
            return
        if not ms.enabled:
            caq_items.append(cmd)
            return
        if ms.read_lookup(cmd.line):
            # First Prefetch Buffer check: serve the read without DRAM.
            values["pb_hits_pre_caq"] += 1
            values[_PB_HIT_KEYS[cmd.provenance is _PS_PREFETCH]] += 1
            self._respond_at(cmd, now + self._pb_hit_delay)
            return
        if ms.try_merge(cmd):
            values["pb_merges_pre_caq"] += 1
            values[_PB_MERGE_KEYS[cmd.provenance is _PS_PREFETCH]] += 1
            return
        caq_items.append(cmd)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """Nothing queued or in flight anywhere (LPQ included)."""
        return (
            not self._completions
            and self.queues.empty
            and self.caq.empty
            and len(self.ms.lpq) == 0
        )

    @property
    def pb_hits(self) -> float:
        return self.stats["pb_hits_pre_caq"] + self.stats["pb_hits_caq"]
