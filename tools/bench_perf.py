"""Measure simulator throughput and gate main-loop perf regressions.

Runs one benchmark suite under the standard config set in both main-loop
modes (``event`` and ``reference``), reports simulated-MC-cycles per
wall-clock second, and writes a schema-versioned JSON report (see
:mod:`repro.perf`).  With ``--baseline`` it exits non-zero when the
event/reference speedup ratio fell more than ``--fail-threshold`` below
the baseline's — the ratio cancels host speed, so the gate is portable
across machines (CI runners included).

Usage::

    PYTHONPATH=src python tools/bench_perf.py --smoke \
        --baseline BENCH_PERF.json          # CI gate
    PYTHONPATH=src python tools/bench_perf.py --smoke \
        --output BENCH_PERF.json            # refresh the baseline
    PYTHONPATH=src python tools/bench_perf.py --suite spec2006fp \
        --accesses 20000                    # full fig5-scale measurement
"""

from __future__ import annotations

import argparse
import sys

from repro.perf import (
    DEFAULT_CONFIGS,
    DEFAULT_FAIL_THRESHOLD,
    compare_reports,
    load_report,
    measure_suite,
    write_report,
)
from repro.workloads.profiles import suite_benchmarks

#: Smoke-mode scale: a suite prefix at reduced trace length, sized so
#: the CI bench job finishes in a couple of minutes yet still exercises
#: every config and both loop modes.
SMOKE_BENCHMARKS = 3
SMOKE_ACCESSES = 4000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--suite", default="spec2006fp")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"first {SMOKE_BENCHMARKS} benchmarks at "
        f"{SMOKE_ACCESSES} accesses (CI scale)",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=None,
        help="trace length (default: REPRO_TRACE_ACCESSES or 20000; "
        "--smoke overrides to its own default unless set here)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated subset of the suite (overrides --smoke's)",
    )
    parser.add_argument(
        "--configs", default=",".join(DEFAULT_CONFIGS),
        help="comma-separated config names",
    )
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--baseline", default=None,
        help="compare against this report; exit 1 on regression",
    )
    parser.add_argument(
        "--fail-threshold", type=float, default=DEFAULT_FAIL_THRESHOLD,
        help="allowed fractional drop of the event/reference speedup "
        "(default %(default)s)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmarks = None
    accesses = args.accesses
    if args.smoke:
        benchmarks = list(suite_benchmarks(args.suite))[:SMOKE_BENCHMARKS]
        if accesses is None:
            accesses = SMOKE_ACCESSES
    if args.benchmarks:
        benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]

    report = measure_suite(
        args.suite,
        configs=configs,
        accesses=accesses,
        benchmarks=benchmarks,
        threads=args.threads,
        seed=args.seed,
    )
    for mode, m in sorted(report["modes"].items()):
        print(
            f"{mode:>10}: {m['cycles']:>12,} cycles in "
            f"{m['wall_seconds']:8.2f}s  -> {m['cycles_per_second']:>10,} cyc/s"
        )
    ratio = report.get("speedup_vs_reference")
    if ratio is not None:
        print(f"{'speedup':>10}: {ratio:.3f}x (event vs reference)")

    if args.output:
        write_report(args.output, report)
        print(f"wrote {args.output}")

    if args.baseline:
        baseline = load_report(args.baseline)
        problems = compare_reports(report, baseline, args.fail_threshold)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(
            f"baseline ok: {ratio:.3f}x vs "
            f"{baseline.get('speedup_vs_reference'):.3f}x "
            f"(threshold {args.fail_threshold:.0%})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
