"""Scenario diversity: external trace loaders + adversarial fuzzing.

The evaluation otherwise rests entirely on the synthetic generator
(:mod:`repro.workloads.synthetic`); this package opens the workload
axis in both directions (docs/scenarios.md):

* :mod:`~repro.scenarios.loaders` — streaming loaders for external
  trace formats (ChampSim-style line-address text, generic gzipped
  ``addr,rw[,tid]`` CSV), normalising byte addresses to the internal
  ``(gap, line, is_write)`` records with configurable line-size
  rebasing;
* :mod:`~repro.scenarios.fuzzer` — an adversarial search over the
  :class:`~repro.workloads.synthetic.StreamWorkload` parameter space
  for patterns where ASD mispredicts, executed through the ordinary
  sweep engine so every candidate dedupes into the result store.
"""

from repro.scenarios.fuzzer import FuzzReport, FuzzResult, run_fuzz
from repro.scenarios.loaders import (
    convert_trace,
    detect_format,
    iter_champsim,
    iter_csv,
    load_external,
)
from repro.scenarios.objectives import OBJECTIVES, Objective
from repro.scenarios.space import FuzzSpace

__all__ = [
    "FuzzReport",
    "FuzzResult",
    "FuzzSpace",
    "OBJECTIVES",
    "Objective",
    "convert_trace",
    "detect_format",
    "iter_champsim",
    "iter_csv",
    "load_external",
    "run_fuzz",
]
