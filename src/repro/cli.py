"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``      — benchmarks, suites, and configurations
* ``run``       — simulate one benchmark under one configuration
* ``compare``   — one benchmark under NP / PS / MS / PMS
* ``suite``     — a whole suite (Figures 5/6/7 style table)
* ``sweep``     — a benchmarks x configs grid, sharded across worker
  processes through the on-disk result store (docs/experiments.md)
* ``figure``    — regenerate one paper figure/table by id
* ``trace``     — trace tooling (docs/scenarios.md): ``trace generate``
  saves a synthetic trace, ``trace convert`` normalises an external
  trace (ChampSim-style text or ``addr,rw[,tid]`` CSV, gzipped or
  plain) to the internal format, ``trace calibrate`` measures the fast
  model's error bars on a converted trace
* ``fuzz``      — adversarial workload search over the synthetic
  generator's parameter space (docs/scenarios.md): worst cases by a
  pluggable objective, reproducible per seed, results deduped into
  the store
* ``cost``      — the hardware-cost table (Section 5.1)
* ``telemetry`` — run one benchmark with full instrumentation and
  export/print the epoch-resolved series (see docs/telemetry.md)
* ``obs``       — fleet observability: ``obs serve`` exposes the
  metrics snapshots of past sweeps over HTTP; ``obs trace export``
  converts a sweep's span snapshot to Chrome trace-event JSON for
  Perfetto (docs/observability.md)
* ``lint``      — simulator-invariant static analysis (determinism,
  dual-path parity, cycle accounting, stat-key registry, hot-path
  hygiene; see docs/linting.md)

``run`` and ``compare`` accept ``--trace-events PATH`` (JSONL event
log) and ``--probe-interval N`` (sample epoch series every N epochs);
both default to off, costing nothing.  ``compare``, ``suite`` and
``sweep`` accept ``--jobs N`` (parallel workers) and ``--no-store``
(skip the on-disk result store); traced runs are always serial and
never stored.  ``sweep`` additionally drives a live progress line
(suppress with ``--no-progress``), always writes a metrics snapshot
under ``.repro-results/metrics/``, and serves ``/metrics`` +
``/healthz`` + ``/progress`` live when given ``--metrics-port N``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.system.presets import ABLATION_CONFIGS, CONFIG_NAMES, make_config
from repro.workloads.profiles import SUITES

#: figure/table id -> (module, entry function, render function) names
FIGURES = {
    "fig2": ("repro.experiments.slh_figures", "fig3_slh_phases", None),
    "fig3": ("repro.experiments.slh_figures", "fig3_slh_phases", None),
    "fig5": ("repro.experiments.performance", "fig5_spec", "render"),
    "fig6": ("repro.experiments.performance", "fig6_nas", "render"),
    "fig7": ("repro.experiments.performance", "fig7_commercial", "render"),
    "fig8": ("repro.experiments.power", "fig8_power_spec", "render"),
    "fig9": ("repro.experiments.power", "fig9_power_nas", "render"),
    "fig10": ("repro.experiments.power", "fig10_power_commercial", "render"),
    "fig11": ("repro.experiments.ablation", "fig11_ablation", "render"),
    "fig12": ("repro.experiments.stream_lengths", "fig12_stream_lengths", "render"),
    "fig13": ("repro.experiments.efficiency", "fig13_efficiency", "render"),
    "fig14": ("repro.experiments.sensitivity", "fig14_buffer_size", "render"),
    "fig15": ("repro.experiments.sensitivity", "fig15_filter_size", "render"),
    "fig16": ("repro.experiments.slh_figures", "fig16_slh_accuracy", None),
    "hardware": ("repro.experiments.hardware_cost", "tab_hardware_cost", "render"),
    "smt": ("repro.experiments.smt", "tab_smt", "render"),
    "scheduler": (
        "repro.experiments.scheduler_interaction",
        "tab_scheduler_interaction",
        "render",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive Stream Detection reproduction (Hur & Lin, MICRO 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="benchmarks, suites, configurations")

    def common(p):
        p.add_argument("-n", "--accesses", type=int, default=15_000,
                       help="trace length in memory accesses")
        p.add_argument("--seed", type=int, default=1)

    def telem(p):
        p.add_argument("--trace-events", metavar="PATH", default=None,
                       help="write a JSONL event log to PATH")
        p.add_argument("--probe-interval", type=int, metavar="N",
                       default=None,
                       help="sample epoch-resolved series every N epochs")

    run = sub.add_parser("run", help="one benchmark, one configuration")
    run.add_argument("-b", "--benchmark", required=True)
    run.add_argument("-c", "--config", default="PMS")
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--scheduler", default="ahb",
                     choices=("ahb", "memoryless", "in_order"))
    run.add_argument("--json", action="store_true",
                     help="emit the full result as JSON")
    common(run)
    telem(run)

    def parallel(p, jobs_help="worker processes (default REPRO_JOBS or 1)"):
        p.add_argument("-j", "--jobs", type=int, default=None,
                       help=jobs_help)
        p.add_argument("--no-store", action="store_true",
                       help="skip the on-disk result store")

    compare = sub.add_parser("compare", help="NP/PS/MS/PMS on one benchmark")
    compare.add_argument("-b", "--benchmark", required=True)
    common(compare)
    telem(compare)
    parallel(compare)

    suite = sub.add_parser("suite", help="a whole suite (Figure 5/6/7 table)")
    suite.add_argument("-s", "--suite", required=True, choices=sorted(SUITES))
    common(suite)
    parallel(suite)

    sweep = sub.add_parser(
        "sweep", help="benchmarks x configs grid via the parallel engine"
    )
    sweep.add_argument("-s", "--suite", choices=sorted(SUITES),
                       help="sweep a whole suite")
    sweep.add_argument("-b", "--benchmarks", nargs="+", metavar="BENCH",
                       help="sweep an explicit benchmark list")
    sweep.add_argument("-c", "--configs", nargs="+", metavar="CONFIG",
                       default=list(CONFIG_NAMES),
                       help="configurations (default: NP PS MS PMS)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds")
    sweep.add_argument("--fidelity", choices=("exact", "fast", "auto"),
                       default="exact",
                       help="simulation tier (docs/fidelity.md): exact = "
                            "cycle-accurate, fast = analytic model with "
                            "validated error bars, auto = fast plus exact "
                            "escalation near decision boundaries")
    sweep.add_argument("--metrics-port", type=int, metavar="N", default=None,
                       help="serve /metrics, /healthz and /progress on "
                            "127.0.0.1:N for the duration of the sweep "
                            "(0 = OS-assigned)")
    sweep.add_argument("--no-progress", action="store_true",
                       help="suppress the live progress line")
    sweep.add_argument("--verbose", action="store_true",
                       help="log sweep robustness events to stderr")
    common(sweep)
    parallel(sweep,
             jobs_help="worker processes (default REPRO_JOBS or all CPUs)")

    figure = sub.add_parser("figure", help="regenerate one paper artifact")
    figure.add_argument("id", choices=sorted(FIGURES))

    trace = sub.add_parser(
        "trace", help="trace tooling: generate / convert / calibrate"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    tgen = trace_sub.add_parser(
        "generate", help="generate and save a synthetic trace"
    )
    tgen.add_argument("-b", "--benchmark", required=True)
    tgen.add_argument("-o", "--output", required=True)
    common(tgen)

    tconv = trace_sub.add_parser(
        "convert",
        help="convert an external trace (champsim/csv) to the "
             "internal format",
    )
    tconv.add_argument("source", help="external trace file (.gz ok)")
    tconv.add_argument("-o", "--output", required=True,
                       help="internal-format output (.gz ok)")
    tconv.add_argument("--format", dest="fmt", default=None,
                       choices=("champsim", "csv"),
                       help="input format (default: guess from the name)")
    tconv.add_argument("--line-size", type=int, default=64, metavar="BYTES",
                       help="byte line size of the input addresses "
                            "(default 64; power of two)")
    tconv.add_argument("--gap", type=int, default=20, metavar="N",
                       help="instruction gap per access when the format "
                            "carries no instruction counts (default 20)")
    tconv.add_argument("--limit", type=int, default=None, metavar="N",
                       help="convert at most the first N records")

    tcal = trace_sub.add_parser(
        "calibrate",
        help="calibrate the fast model's error bars on a converted trace",
    )
    tcal.add_argument("file", help="internal-format trace file")
    tcal.add_argument("-c", "--configs", nargs="+", metavar="CONFIG",
                      default=list(CONFIG_NAMES),
                      help="configurations (default: NP PS MS PMS)")
    tcal.add_argument("-n", "--accesses", type=int, default=None,
                      help="replay at most N records (default: all)")
    tcal.add_argument("--seed", type=int, default=1)
    parallel(tcal)

    fuzz = sub.add_parser(
        "fuzz", help="adversarial workload search (docs/scenarios.md)"
    )
    fuzz.add_argument("--budget", type=int, default=16, metavar="N",
                      help="candidate workloads to evaluate (default 16)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="search seed; same seed, same worst cases")
    fuzz.add_argument("--objective", default="waste",
                      choices=("waste", "regret", "fidelity"),
                      help="what to maximise (default waste: prefetches "
                           "nobody reads)")
    fuzz.add_argument("--top", type=int, default=8, metavar="K",
                      help="worst cases to keep and report (default 8)")
    fuzz.add_argument("--round-size", type=int, default=8, metavar="N",
                      help="candidates per sweep round (default 8)")
    fuzz.add_argument("-n", "--accesses", type=int, default=4000,
                      help="trace length per evaluation (default 4000)")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")
    parallel(fuzz)

    cost = sub.add_parser("cost", help="hardware cost table")
    cost.add_argument("--threads", type=int, nargs="+", default=(1, 2, 4))

    tel = sub.add_parser(
        "telemetry", help="instrumented run: epoch series + event log"
    )
    tel.add_argument("-b", "--benchmark", required=True)
    tel.add_argument("-c", "--config", default="PMS")
    tel.add_argument("--probe-interval", type=int, metavar="N", default=1,
                     help="sample epoch series every N epochs (default 1)")
    tel.add_argument("--events", metavar="PATH", default=None,
                     help="also write a JSONL event log to PATH")
    tel.add_argument("--series-csv", metavar="PATH", default=None,
                     help="write scalar epoch series to a CSV file")
    tel.add_argument("--series-json", metavar="PATH", default=None,
                     help="write all epoch series (SLH included) to JSON")
    tel.add_argument("--rows", type=int, default=20,
                     help="epoch-report rows to print (default 20)")
    common(tel)

    obs = sub.add_parser(
        "obs", help="fleet observability (docs/observability.md)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    serve = obs_sub.add_parser(
        "serve", help="serve stored metrics snapshots over HTTP"
    )
    serve.add_argument("--port", type=int, default=9123,
                       help="TCP port to bind (default 9123, 0 = OS pick)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--dir", dest="directory", default=None,
                       help="snapshot directory (default "
                            ".repro-results/metrics)")
    otrace = obs_sub.add_parser(
        "trace", help="span-trace tooling (docs/observability.md)"
    )
    otrace_sub = otrace.add_subparsers(dest="obs_trace_command", required=True)
    oexport = otrace_sub.add_parser(
        "export",
        help="convert a span snapshot to Chrome trace-event JSON "
             "(loadable in Perfetto / chrome://tracing)",
    )
    oexport.add_argument("--input", default=None, metavar="PATH",
                         help="span snapshot (default "
                              ".repro-results/spans/latest.json)")
    oexport.add_argument("-o", "--output", default="trace.json",
                         metavar="PATH",
                         help="trace-event output file (default trace.json)")

    lint = sub.add_parser(
        "lint", help="simulator-invariant static analysis (docs/linting.md)"
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to scan (default: src/repro)")
    lint.add_argument("--check", action="store_true",
                      help="exit nonzero on any new (non-baselined) finding")
    lint.add_argument("--json", action="store_true", help="JSON report")
    lint.add_argument("--output", metavar="PATH", default=None,
                      help="additionally write the JSON report to PATH")
    lint.add_argument("--baseline", metavar="PATH", default=None,
                      help="baseline file (default .lint-baseline.json)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="grandfather every current finding")
    lint.add_argument("--write-registry", action="store_true",
                      help="regenerate the stat-key/metric-name registries "
                           "and exit")

    return parser


def _make_session(trace_events, probe_interval):
    """A TelemetrySession when either telemetry flag was given, else None."""
    if trace_events is None and probe_interval is None:
        return None
    from repro.telemetry.session import TelemetrySession

    return TelemetrySession(trace_events=trace_events,
                            probe_interval=probe_interval)


def _cmd_list() -> int:
    print("suites:")
    for suite, names in SUITES.items():
        print(f"  {suite}: {', '.join(names)}")
    print()
    print(f"configurations: {', '.join(CONFIG_NAMES)}")
    print(f"ablations:      {', '.join(ABLATION_CONFIGS)}")
    print("extensions:     ASD_PS, PMS_DEGREE<d>")
    return 0


def _cmd_run(args) -> int:
    from repro.experiments.runner import get_trace
    from repro.system.simulator import simulate

    traces = [
        get_trace(args.benchmark, args.accesses, seed=args.seed + t)
        for t in range(args.threads)
    ]
    config = make_config(args.config, threads=args.threads,
                         scheduler=args.scheduler)
    session = _make_session(args.trace_events, args.probe_interval)
    result = simulate(
        config,
        traces,
        tracer=session.tracer if session else None,
        probes=session.probes if session else None,
    )
    if session is not None:
        session.close()
        if session.writer is not None and result.telemetry is not None:
            result.telemetry["events_written"] = session.writer.events_written
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(result.summary())
    print(f"  MC cycles          {result.cycles}")
    print(f"  IPC                {result.ipc:.3f}")
    print(f"  demand latency     {result.avg_read_latency():.1f} MC cycles")
    print(
        f"  DRAM reads/writes  {result.stats.get('dram.issued_reads', 0):.0f} / "
        f"{result.stats.get('dram.issued_writes', 0):.0f}"
    )
    if result.stats.get("pb.inserts"):
        print(f"  useful prefetches  {result.useful_prefetch_fraction * 100:.1f}%")
        print(f"  coverage           {result.coverage * 100:.1f}%")
    if result.power:
        print(f"  DRAM energy        {result.power.energy_uj:.1f} uJ "
              f"({result.power.avg_power_mw:.0f} mW avg)")
    if session is not None:
        tracer = session.tracer
        print(f"  telemetry          {tracer.total_events} events, "
              f"{tracer.overhead_seconds() * 1e3:.1f} ms overhead")
        if session.probes is not None:
            print()
            print(session.report())
    return 0


def _events_path_for(base: str, config_name: str) -> str:
    """Per-config event-log path: ``out.jsonl`` -> ``out.NP.jsonl``."""
    import os

    root, ext = os.path.splitext(base)
    return f"{root}.{config_name}{ext or '.jsonl'}"


def _cmd_compare(args) -> int:
    traced = args.trace_events is not None or args.probe_interval is not None
    if traced:
        # Traced runs are serial-only and never stored/cached: their
        # side effects (event logs, probe series) are the point.
        from repro.experiments.runner import get_trace
        from repro.system.simulator import simulate

        trace = get_trace(args.benchmark, args.accesses, seed=args.seed)
        results = {}
        for name in CONFIG_NAMES:
            events = (
                _events_path_for(args.trace_events, name)
                if args.trace_events is not None else None
            )
            session = _make_session(events, args.probe_interval)
            results[name] = simulate(
                make_config(name),
                trace,
                tracer=session.tracer if session else None,
                probes=session.probes if session else None,
            )
            if session is not None:
                session.close()
    else:
        from repro.experiments.runner import run_suite

        results = run_suite(
            (args.benchmark,), CONFIG_NAMES, jobs=args.jobs,
            accesses=args.accesses, seed=args.seed,
            use_store=False if args.no_store else None,
        )[args.benchmark]
    np_run = results["NP"]
    rows = []
    for name in CONFIG_NAMES:
        r = results[name]
        rows.append(
            [name, r.cycles, r.gain_vs(np_run), r.avg_read_latency(),
             r.coverage * 100]
        )
    print(
        format_table(
            ["config", "MC cycles", "gain vs NP %", "read lat", "coverage %"],
            rows,
            title=f"{args.benchmark} ({args.accesses} accesses)",
        )
    )
    return 0


def _cmd_suite(args) -> int:
    import os

    os.environ["REPRO_TRACE_ACCESSES"] = str(args.accesses)
    os.environ["REPRO_SEED"] = str(args.seed)
    if args.no_store:
        os.environ["REPRO_STORE"] = "0"
    from repro.experiments.performance import performance_figure, render

    print(render(performance_figure(args.suite, jobs=args.jobs)))
    return 0


def _cmd_sweep(args) -> int:
    import logging
    import os

    from repro.experiments import sweep
    from repro.obs import critpath, exporters, metrics
    from repro.obs import progress as obs_progress
    from repro.obs import spans as obs_spans
    from repro.obs.server import ObsServer

    if args.benchmarks:
        benchmarks = list(args.benchmarks)
    elif args.suite:
        benchmarks = list(SUITES[args.suite])
    else:
        print("sweep: pass --suite or --benchmarks", file=sys.stderr)
        return 2
    if args.verbose:
        logging.basicConfig(
            level=logging.INFO, stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        logging.getLogger("repro").setLevel(logging.INFO)
    jobs = args.jobs if args.jobs is not None else (
        int(os.environ["REPRO_JOBS"]) if "REPRO_JOBS" in os.environ
        else os.cpu_count() or 1
    )
    configs = list(args.configs)
    specs = sweep.expand_grid(benchmarks, configs, accesses=args.accesses,
                              seed=args.seed)
    # The sweep CLI always runs with fleet metrics on: the registry is
    # cheap at this granularity and feeds the snapshot + live endpoint.
    # Ditto the span collector — its snapshot feeds the critical-path
    # summary and `repro obs trace export`.
    registry = metrics.MetricsRegistry(enabled=True)
    metrics.set_default_registry(registry)
    collector = obs_spans.SpanCollector(enabled=True)
    obs_spans.set_default_collector(collector)
    live = obs_progress.SweepProgress()
    printer = (
        None if args.no_progress else obs_progress.ProgressPrinter(live)
    )
    if printer is not None:
        live.subscribe(printer.on_change)
    server = None
    if args.metrics_port is not None:
        server = ObsServer(
            registry=registry, progress=live, port=args.metrics_port,
            spans=collector,
        ).start()
        print(f"  obs endpoint: {server.url}", file=sys.stderr)
    try:
        if args.fidelity == "exact":
            outcome = sweep.run_jobs(
                specs, jobs=max(1, jobs), timeout=args.timeout,
                use_store=False if args.no_store else None,
                progress=live, metrics=registry,
            )
        else:
            from repro.fastsim import run_fidelity_sweep

            outcome = run_fidelity_sweep(
                specs, fidelity=args.fidelity, jobs=max(1, jobs),
                timeout=args.timeout,
                use_store=False if args.no_store else None,
                progress=live, metrics=registry,
            )
    finally:
        if printer is not None:
            printer.close()
        snapshot_path = exporters.write_snapshot(
            registry, progress=live.snapshot()
        )
        spans_path = obs_spans.write_spans(collector)
        if server is not None:
            server.close()
        metrics.reset_default_registry()
        obs_spans.reset_default_collector()
    by_bench = {}
    for spec, result in zip(specs, outcome.results):
        by_bench.setdefault(spec.benchmark, {})[spec.config_name] = result
    print(
        _grid_table(
            benchmarks, configs, by_bench,
            title=(f"sweep: {len(benchmarks)} benchmarks x "
                   f"{len(configs)} configs ({args.accesses} accesses, "
                   f"jobs={max(1, jobs)})"),
        )
    )
    print(f"  {outcome.stats.describe()}")
    record = getattr(outcome, "record", None)
    if record is not None:
        print(f"  {record.summary()}")
        if getattr(outcome, "escalated_indices", None):
            escalated = ", ".join(
                f"{specs[i].benchmark}/{specs[i].config_name}"
                for i in outcome.escalated_indices
            )
            print(f"  escalated to exact (decision boundary): {escalated}")
    if not args.no_store:
        from repro.experiments import store

        st = store.get_store()
        print(f"  store: {len(st)} entries at {st.root}")
    print(f"  metrics snapshot: {snapshot_path}")
    for line in critpath.render_summary(
        critpath.analyze(collector.spans())
    ).splitlines():
        print(f"  {line}")
    print(f"  span snapshot: {spans_path} "
          "(repro obs trace export renders it for Perfetto)")
    return 0


def _grid_table(benchmarks, configs, by_bench, title) -> str:
    """The benchmarks x configs result table printed by ``repro sweep``."""
    baseline_name = configs[0] if "NP" not in configs else "NP"
    rows = []
    for b in benchmarks:
        base = by_bench[b][baseline_name]
        for c in configs:
            r = by_bench[b][c]
            rows.append([b, c, r.cycles, r.gain_vs(base), r.coverage * 100])
    return format_table(
        ["benchmark", "config", "MC cycles",
         f"gain vs {baseline_name} %", "coverage %"],
        rows,
        title=title,
    )


def _cmd_obs(args) -> int:
    if args.obs_command == "trace":
        return _cmd_obs_trace(args)

    from repro.obs.paths import metrics_dir
    from repro.obs.server import ObsServer

    directory = args.directory if args.directory else metrics_dir()
    server = ObsServer(snapshot_dir=directory, host=args.host, port=args.port)
    print(f"serving metrics snapshots from {directory} on {server.url}")
    print("endpoints: /metrics /metrics.json /healthz /progress (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_obs_trace(args) -> int:
    """``repro obs trace export``: span snapshot -> Chrome trace JSON."""
    import json
    import os

    from repro.obs import critpath
    from repro.obs import spans as obs_spans
    from repro.obs.paths import spans_dir

    path = args.input if args.input else os.path.join(
        spans_dir(), "latest.json"
    )
    try:
        spans = obs_spans.load_spans(path)
    except FileNotFoundError:
        print(f"obs trace export: no span snapshot at {path} "
              "(run `repro sweep` first, or pass --input)", file=sys.stderr)
        return 2
    except obs_spans.SpanError as exc:
        print(f"obs trace export: {path}: {exc}", file=sys.stderr)
        return 2
    document = obs_spans.to_chrome_trace(spans)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    events = sum(1 for e in document["traceEvents"] if e["ph"] == "X")
    print(f"wrote {args.output}: {events} span(s) from {path}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    print(critpath.render_summary(critpath.analyze(spans)))
    return 0


def _cmd_figure(args) -> int:
    import importlib

    module_name, func_name, render_name = FIGURES[args.id]
    module = importlib.import_module(module_name)
    if render_name is None:
        module.main()
        return 0
    figure = getattr(module, func_name)()
    print(getattr(module, render_name)(figure))
    return 0


def _cmd_trace(args) -> int:
    if args.trace_command == "generate":
        from repro.experiments.runner import get_trace

        trace = get_trace(args.benchmark, args.accesses, seed=args.seed)
        trace.save(args.output)
        print(
            f"wrote {len(trace)} records ({trace.unique_lines} unique "
            f"lines, {trace.write_fraction * 100:.0f}% writes) to "
            f"{args.output}"
        )
        return 0

    if args.trace_command == "convert":
        from repro.scenarios.loaders import convert_trace
        from repro.workloads.dynamic import trace_benchmark

        report = convert_trace(
            args.source, args.output, fmt=args.fmt,
            line_size=args.line_size, default_gap=args.gap,
            limit=args.limit,
        )
        print(report.summary())
        print(f"benchmark name: {trace_benchmark(args.output)}")
        return 0

    # trace calibrate
    from repro.scenarios.calibrate import calibrate_trace

    record, outcome = calibrate_trace(
        args.file, configs=args.configs, accesses=args.accesses,
        seed=args.seed, jobs=max(1, args.jobs or 1),
        use_store=False if args.no_store else None,
    )
    for result in outcome.results:
        print(result.summary())
    print(f"  {outcome.stats.describe()}")
    print(f"  {record.summary()}")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.scenarios.fuzzer import run_fuzz

    report = run_fuzz(
        budget=args.budget, seed=args.seed, objective=args.objective,
        accesses=args.accesses, jobs=max(1, args.jobs or 1),
        top=args.top, round_size=args.round_size,
        use_store=False if args.no_store else None,
    )
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    rows = [
        [result.name, result.origin, result.round, result.score,
         result.metrics.get("useful_prefetch_fraction", 0.0) * 100]
        for result in report.results
    ]
    print(
        format_table(
            ["worst case", "origin", "round", "score", "useful pf %"],
            rows,
            title=(f"fuzz[{report.objective}]: {report.evaluated} "
                   f"candidates, seed {report.seed}"),
        )
    )
    print(f"  baseline ({report.baseline.name}): "
          f"score {report.baseline.score:.4f}")
    print(f"  {report.summary()}")
    print(f"  {report.stats.describe()}")
    return 0


def _cmd_cost(args) -> int:
    from repro.experiments.hardware_cost import render, tab_hardware_cost

    print(render(tab_hardware_cost(thread_counts=tuple(args.threads))))
    return 0


def _cmd_telemetry(args) -> int:
    from repro.experiments.runner import get_trace
    from repro.system.simulator import simulate
    from repro.telemetry.session import TelemetrySession

    trace = get_trace(args.benchmark, args.accesses, seed=args.seed)
    config = make_config(args.config)
    session = TelemetrySession(trace_events=args.events,
                               probe_interval=args.probe_interval)
    result = simulate(config, trace, tracer=session.tracer,
                      probes=session.probes)
    session.close()

    print(result.summary())
    print()
    print(session.report(max_rows=args.rows))
    tracer = session.tracer
    print()
    print(f"events: {tracer.total_events} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(tracer.counts.items()))})")
    print(f"tracer overhead: {tracer.overhead_seconds() * 1e3:.1f} ms")
    if args.events:
        print(f"event log: {args.events} "
              f"({session.writer.events_written} events)")
    if args.series_csv:
        rows = session.export_csv(args.series_csv)
        print(f"series CSV: {args.series_csv} ({rows} epochs)")
    if args.series_json:
        session.export_json(args.series_json)
        print(f"series JSON: {args.series_json}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysislint import runner as lint_runner

    forwarded: List[str] = list(args.paths)
    for flag in ("check", "json", "update_baseline", "write_registry"):
        if getattr(args, flag):
            forwarded.append("--" + flag.replace("_", "-"))
    if args.baseline is not None:
        forwarded.extend(["--baseline", args.baseline])
    if args.output is not None:
        forwarded.extend(["--output", args.output])
    return lint_runner.main(forwarded)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "list": lambda: _cmd_list(),
        "run": lambda: _cmd_run(args),
        "compare": lambda: _cmd_compare(args),
        "suite": lambda: _cmd_suite(args),
        "sweep": lambda: _cmd_sweep(args),
        "figure": lambda: _cmd_figure(args),
        "trace": lambda: _cmd_trace(args),
        "fuzz": lambda: _cmd_fuzz(args),
        "cost": lambda: _cmd_cost(args),
        "telemetry": lambda: _cmd_telemetry(args),
        "obs": lambda: _cmd_obs(args),
        "lint": lambda: _cmd_lint(args),
    }
    return handlers[args.command]()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
