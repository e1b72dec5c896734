"""ASD applied processor-side — the paper's stated future work.

The conclusion of the paper: "As future work, we will consider applying
Adaptive Stream Detection to processor-side prefetching."  This module
implements that idea so it can be evaluated: the same Stream Filter +
Likelihood Table machinery, but observing the core's L1-miss stream and
issuing prefetch requests that fill the L2/L1 caches (like the Power5
unit) instead of a memory-side buffer.

Differences from the memory-side ASD:

* it observes *L1 misses* (plus hits on its own installs, so streams
  keep advancing once covered), not controller reads;
* its prefetches are regular reads at the controller and their data
  enters the cache hierarchy, so no Prefetch Buffer or LPQ is involved;
* it can run a lead greater than one (``lead``), issuing the d-th line
  ahead whenever inequality (6) approves degree d — a natural
  generalisation the processor side needs because its round trip is
  longer than the controller's.

Select it with ``ProcessorSidePrefetcherConfig.engine = "asd"`` (the
default ``"power5"`` keeps the stock two-miss-confirm unit).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.common.config import ProcessorSidePrefetcherConfig
from repro.common.stats import Stats
from repro.common.types import Direction
from repro.prefetch.slh import LikelihoodTables
from repro.prefetch.stream_filter import StreamFilter

# enum members bound once (docs/performance.md, hot-path conventions)
_DESCENDING = Direction.DESCENDING


class ASDProcessorSidePrefetcher:
    """Adaptive Stream Detection driving processor-side prefetches.

    API-compatible with
    :class:`repro.prefetch.processor_side.ProcessorSidePrefetcher`.
    """

    def __init__(self, config: ProcessorSidePrefetcherConfig) -> None:
        config.validate()
        self.config = config
        self.enabled = config.enabled
        sf_cfg = config.asd_stream_filter
        slh_cfg = config.asd_slh
        # (ascending, descending), indexed by ``step < 0`` or
        # ``direction is DESCENDING`` instead of hashing a Direction
        self._tables: Tuple[LikelihoodTables, LikelihoodTables] = (
            LikelihoodTables(slh_cfg),
            LikelihoodTables(slh_cfg),
        )
        self._filter = StreamFilter(sf_cfg, on_evict=self._record)
        self._installed_l1: Set[int] = set()
        self._misses_this_epoch = 0
        self.stats = Stats()
        self._stat_values = self.stats.raw()

    def _record(self, length: int, direction: Direction) -> None:
        self._tables[direction is _DESCENDING].record_stream(length)

    # ------------------------------------------------------------------
    def observe(self, line: int, l1_hit: bool) -> List[Tuple[int, bool]]:
        """Feed one demand access; returns the ``(line, to_l1)`` prefetch
        requests to send."""
        if not self.enabled:
            return []
        if l1_hit:
            if line not in self._installed_l1:
                return []
            self._installed_l1.discard(line)
        else:
            self._installed_l1.discard(line)

        self._misses_this_epoch += 1
        if self._misses_this_epoch >= self.config.asd_slh.epoch_reads:
            self._misses_this_epoch = 0
            self._epoch_flush()

        values = self._stat_values
        # read-event clock, like the memory-side default
        values["observations"] += 1
        obs = self._filter.observe(line, int(values["observations"]))
        if obs is None:
            values["untracked"] += 1
            return []
        position, step = obs
        tables = self._tables[step < 0]
        l1_lead = self.config.l1_lead
        out: List[Tuple[int, bool]] = []
        for d in range(1, self.config.lead + 1):
            if not tables.should_prefetch(position, d):
                break
            out.append((line + d * step, d <= l1_lead))
        if out:
            values["generated"] += len(out)
        else:
            values["suppressed"] += 1
        return out

    def _epoch_flush(self) -> None:
        def sink(length: int, direction: Direction) -> None:
            self._tables[direction is _DESCENDING].record_stream_next_only(length)

        self._filter.flush(callback=sink)
        for tables in self._tables:
            tables.rollover()
        self.stats.bump("epochs")

    # ------------------------------------------------------------------
    def notify_fill(self, line: int, to_l1: bool) -> None:
        """A prefetched line arrived; track L1 installs for advance."""
        if to_l1:
            self._installed_l1.add(line)

    @property
    def active_streams(self) -> int:
        return self._filter.occupancy


def build_processor_side(config: ProcessorSidePrefetcherConfig):
    """Factory keyed on ``config.engine`` ("power5" or "asd")."""
    if config.engine == "asd":
        return ASDProcessorSidePrefetcher(config)
    from repro.prefetch.processor_side import ProcessorSidePrefetcher

    return ProcessorSidePrefetcher(config)
