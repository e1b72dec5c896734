"""Simulator throughput measurement and the perf-regression gate.

The unit of merit is **simulated MC cycles per wall-clock second**: how
fast the simulator chews through simulated time.  :func:`measure_suite`
runs one benchmark suite under the standard config set in both main-loop
modes (``event`` and ``reference``, see :mod:`repro.system.simulator`)
and reports per-mode throughput plus the event-over-reference speedup.

Reports are plain JSON (see :data:`PERF_SCHEMA_VERSION`) written by
``tools/bench_perf.py``; the committed ``BENCH_PERF.json`` at the repo
root is the CI baseline.

The regression gate compares the **event/reference speedup ratio**, not
absolute throughput: the ratio is measured within one process on one
machine, so it cancels host speed and isolates what the code controls —
how much the event-driven loop buys over the per-cycle oracle.  Absolute
throughput is recorded alongside for human eyes.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import get_trace, resolve_accesses
from repro.system.presets import make_config
from repro.system.simulator import LOOP_MODES, simulate
from repro.workloads.profiles import suite_benchmarks

#: Bumped when the report layout changes; mismatched baselines are
#: rejected rather than silently compared.
PERF_SCHEMA_VERSION = 2

#: Config set used by the headline figures (Figure 5 et al.).
DEFAULT_CONFIGS = ("NP", "PS", "MS", "PMS")

#: Default regression threshold: fail when the event/reference speedup
#: drops by more than this fraction below the baseline's.
DEFAULT_FAIL_THRESHOLD = 0.25


def measure_suite(
    suite: str,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    accesses: Optional[int] = None,
    benchmarks: Optional[Sequence[str]] = None,
    threads: int = 1,
    seed: int = 1,
    modes: Sequence[str] = LOOP_MODES,
) -> Dict:
    """Time ``suite`` under every config in both loop modes.

    ``benchmarks`` restricts the suite (smoke runs measure a prefix);
    ``accesses`` defaults to the run-scale default
    (:func:`repro.experiments.runner.resolve_accesses`).  Returns a
    schema-versioned report dict — see the module docstring.
    """
    accesses = resolve_accesses(accesses)
    names = list(benchmarks) if benchmarks else list(suite_benchmarks(suite))
    for mode in modes:
        if mode not in LOOP_MODES:
            raise ValueError(f"unknown loop mode {mode!r}")
    totals = {mode: {"wall_seconds": 0.0, "cycles": 0} for mode in modes}
    for bench in names:
        traces = [
            get_trace(bench, accesses, seed + t) for t in range(threads)
        ]
        for config_name in configs:
            config = make_config(config_name, threads=threads)
            for mode in modes:
                start = time.perf_counter()
                result = simulate(config, traces, loop=mode)
                elapsed = time.perf_counter() - start
                totals[mode]["wall_seconds"] += elapsed
                totals[mode]["cycles"] += result.cycles
    mode_reports = {}
    for mode, acc in totals.items():
        wall = acc["wall_seconds"]
        mode_reports[mode] = {
            "wall_seconds": round(wall, 3),
            "cycles": acc["cycles"],
            "cycles_per_second": round(acc["cycles"] / wall) if wall else 0,
        }
    report = {
        "schema": PERF_SCHEMA_VERSION,
        "suite": suite,
        "benchmarks": names,
        "configs": list(configs),
        "accesses": accesses,
        "threads": threads,
        "seed": seed,
        "modes": mode_reports,
        "host": {
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "machine": platform.machine(),
        },
    }
    if "event" in mode_reports and "reference" in mode_reports:
        ref = mode_reports["reference"]["cycles_per_second"]
        evt = mode_reports["event"]["cycles_per_second"]
        report["speedup_vs_reference"] = round(evt / ref, 3) if ref else 0.0
    return report


def write_report(path: str, report: Dict) -> None:
    """Write ``report`` as stable (sorted, indented) JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict:
    """Read a report previously written by :func:`write_report`."""
    with open(path) as fh:
        return json.load(fh)


def compare_reports(
    current: Dict,
    baseline: Dict,
    threshold: float = DEFAULT_FAIL_THRESHOLD,
) -> List[str]:
    """Regressions of ``current`` against ``baseline``; empty = pass.

    Gates on the event/reference speedup ratio (host-speed independent,
    see the module docstring).  A schema or suite mismatch is itself a
    failure — it means the baseline no longer describes this benchmark.
    """
    problems: List[str] = []
    if current.get("schema") != baseline.get("schema"):
        problems.append(
            f"schema mismatch: current {current.get('schema')} "
            f"vs baseline {baseline.get('schema')} "
            "(regenerate the baseline with tools/bench_perf.py)"
        )
        return problems
    if current.get("suite") != baseline.get("suite"):
        problems.append(
            f"suite mismatch: current {current.get('suite')!r} "
            f"vs baseline {baseline.get('suite')!r}"
        )
        return problems
    base_ratio = baseline.get("speedup_vs_reference")
    cur_ratio = current.get("speedup_vs_reference")
    if base_ratio is None or cur_ratio is None:
        problems.append("missing speedup_vs_reference in report(s)")
        return problems
    floor = base_ratio * (1.0 - threshold)
    if cur_ratio < floor:
        problems.append(
            f"event-loop speedup regressed: {cur_ratio:.3f}x vs "
            f"baseline {base_ratio:.3f}x (floor {floor:.3f}x at "
            f"threshold {threshold:.0%})"
        )
    return problems
