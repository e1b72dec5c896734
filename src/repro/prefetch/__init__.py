"""The paper's contribution: Adaptive Stream Detection and its siblings.

* :mod:`repro.prefetch.slh` — Stream Length Histograms via Likelihood
  Tables (LHTcurr / LHTnext), the probabilistic prefetch test.
* :mod:`repro.prefetch.stream_filter` — the 8-slot per-thread Stream
  Filter that feeds the tables; ``StreamFilter.observe`` answers with a
  plain ``(position, step)`` pair, or ``None`` for an untracked read.
* :mod:`repro.prefetch.engines` — the three memory-side generation
  engines: ASD, next-line, and a Power5-style engine relocated into the
  memory controller (the Figure 11 baselines).
* :mod:`repro.prefetch.prefetch_buffer` — the 2 KB Prefetch Buffer.
* :mod:`repro.prefetch.lpq` — the Low Priority Queue.
* :mod:`repro.prefetch.adaptive_scheduling` — the five prioritisation
  policies and the conflict-driven adaptation between them.
* :mod:`repro.prefetch.memory_side` — the assembled memory-side
  prefetcher the controller embeds.
* :mod:`repro.prefetch.processor_side` — the Power5 processor-side
  stream prefetcher (the paper's PS configuration); its requests are
  plain ``(line, to_l1)`` pairs.
"""

from repro.prefetch.adaptive_scheduling import AdaptiveScheduler, lpq_may_issue
from repro.prefetch.lpq import LowPriorityQueue
from repro.prefetch.memory_side import MemorySidePrefetcher
from repro.prefetch.prefetch_buffer import PrefetchBuffer
from repro.prefetch.processor_side import ProcessorSidePrefetcher
from repro.prefetch.slh import LikelihoodTables, slh_bars
from repro.prefetch.stream_filter import StreamFilter

__all__ = [
    "AdaptiveScheduler",
    "LikelihoodTables",
    "LowPriorityQueue",
    "MemorySidePrefetcher",
    "PrefetchBuffer",
    "ProcessorSidePrefetcher",
    "StreamFilter",
    "lpq_may_issue",
    "slh_bars",
]
