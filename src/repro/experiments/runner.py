"""Shared experiment runner: per-process caching over a durable store.

``run()`` simulates one (benchmark, config) pair deterministically.
Results are served from two layers before anything is simulated:

1. the **in-process cache** (a dict, dies with the interpreter), then
2. the **on-disk result store** (:mod:`repro.experiments.store`, JSON
   under ``.repro-results/``, shared across sessions and processes).

``run_suite(jobs=N)`` fans a whole benchmark x config grid out across
worker processes via :mod:`repro.experiments.sweep`; both workers and
the serial path read and write through the same store, and parallel
results are guaranteed to compare equal, field for field, to serial
ones (the simulator is deterministic and the store codec is lossless).

Telemetry-carrying runs (``tracer``/``probes``) always execute serially
in-process and are never cached or stored — their side effects are the
point of running them.

Environment knobs:

* ``REPRO_TRACE_ACCESSES`` — trace length per benchmark (default 20000;
  raise for tighter statistics, lower for quick smoke runs).
* ``REPRO_SEED`` — base RNG seed (default 1).
* ``REPRO_JOBS`` — default worker count for ``run_suite`` (default 1).
* ``REPRO_STORE`` / ``REPRO_STORE_DIR`` — disable (``0``) or relocate
  the on-disk result store.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.common.config import SystemConfig
from repro.experiments import store
from repro.obs.metrics import default_registry
from repro.obs.progress import SweepProgress
from repro.system.presets import make_config
from repro.system.results import RunResult
from repro.system.simulator import simulate
from repro.telemetry.probes import EpochProbes
from repro.telemetry.tracer import Tracer
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace


def default_accesses() -> int:
    """Trace length used when not specified (env-overridable)."""
    return int(os.environ.get("REPRO_TRACE_ACCESSES", "20000"))


def default_seed() -> int:
    """Base RNG seed (env-overridable via REPRO_SEED)."""
    return int(os.environ.get("REPRO_SEED", "1"))


def default_jobs() -> int:
    """Default ``run_suite`` worker count (env-overridable, min 1)."""
    return max(1, int(os.environ.get("REPRO_JOBS", "1")))


def resolve_accesses(accesses: Optional[int]) -> int:
    """Apply the default for ``None`` and validate the trace length.

    An explicit ``accesses=0`` is an error, not a request for the
    default — ``or``-style defaulting used to swallow it silently.
    """
    if accesses is None:
        accesses = default_accesses()
    accesses = int(accesses)
    if accesses <= 0:
        raise ValueError(
            f"accesses must be a positive trace length, got {accesses!r}"
        )
    return accesses


_trace_cache: Dict[Tuple[str, int, int], Trace] = {}
_run_cache: Dict[Tuple, RunResult] = {}
_sim_count = 0  # simulate() calls actually executed by this process
_worker_sim_count = 0  # results computed by sweep pool workers


def get_trace(benchmark: str, accesses: Optional[int] = None, seed: Optional[int] = None) -> Trace:
    """Deterministic trace for a named benchmark (cached).

    ``trace:<digest>:<path>`` names replay (a prefix of) a converted
    external trace file instead of synthesising one; ``wl:<json>``
    names synthesise from the inline-encoded workload.  Both resolve
    identically in every process — see :mod:`repro.workloads.dynamic`.
    """
    accesses = resolve_accesses(accesses)
    seed = default_seed() if seed is None else seed
    key = (benchmark, accesses, seed)
    if key not in _trace_cache:
        if benchmark.startswith("trace:"):
            from repro.workloads.dynamic import load_trace_benchmark

            _trace_cache[key] = load_trace_benchmark(benchmark, accesses)
        else:
            profile = get_profile(benchmark)
            _trace_cache[key] = generate_trace(profile.workload, accesses, seed=seed)
    return _trace_cache[key]


def cache_key(
    benchmark: str,
    config_name: str,
    accesses: int,
    seed: int,
    threads: int = 1,
    scheduler: str = "ahb",
    mutate_key: Optional[str] = None,
    traced: bool = False,
) -> Tuple:
    """The in-process cache key for one run (resolved arguments)."""
    return (benchmark, config_name, accesses, seed, threads, scheduler,
            mutate_key, traced)


def cached_result(key: Tuple) -> Optional[RunResult]:
    """In-process cache lookup (used by the sweep engine)."""
    return _run_cache.get(key)


def seed_cache(key: Tuple, result: RunResult) -> None:
    """Insert a result computed elsewhere (worker/store) into the cache."""
    _run_cache[key] = result


def simulate_job(
    config: SystemConfig,
    benchmark: str,
    accesses: int,
    seed: int,
    threads: int = 1,
    tracer: Optional[Tracer] = None,
    probes: Optional[EpochProbes] = None,
) -> RunResult:
    """Simulate one fully-resolved job (no caching, no store).

    This is the single execution path shared by ``run()`` and the sweep
    workers, which is what makes the parallel == serial determinism
    guarantee hold: there is only one way a job turns into a result.
    """
    global _sim_count
    if threads == 1:
        traces = [get_trace(benchmark, accesses, seed)]
    else:
        traces = [
            get_trace(benchmark, accesses, seed + t) for t in range(threads)
        ]
    _sim_count += 1
    return simulate(config, traces, tracer=tracer, probes=probes)


def note_worker_run() -> None:
    """Count one result computed by a sweep pool worker.

    A worker's own ``simulated`` counter dies with its process, so the
    sweep engine reports each result it receives from the pool here.
    """
    global _worker_sim_count
    _worker_sim_count += 1


def _store_for(use_store: Optional[bool]) -> Optional[store.ResultStore]:
    """The active result store, honouring the per-call override."""
    enabled = store.store_enabled() if use_store is None else use_store
    return store.get_store() if enabled else None


def _count_run(source: str) -> None:
    """Mirror one :func:`run` resolution into the metrics registry."""
    registry = default_registry()
    if registry.enabled:
        registry.counter(
            "repro_runs_total",
            "runner.run() calls resolved, by source "
            "(cache, store, simulated).",
            ("source",),
        ).inc(source=source)


def run(
    benchmark: str,
    config_name: str,
    accesses: Optional[int] = None,
    seed: Optional[int] = None,
    threads: int = 1,
    scheduler: str = "ahb",
    mutate: Optional[Callable[[SystemConfig], SystemConfig]] = None,
    mutate_key: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    probes: Optional[EpochProbes] = None,
    use_store: Optional[bool] = None,
) -> RunResult:
    """Simulate one benchmark under one named configuration (cached).

    ``mutate`` applies a config transformation (e.g. a sensitivity-sweep
    override); pass a distinct ``mutate_key`` to make such runs
    cacheable, otherwise they bypass both cache layers.

    ``tracer`` / ``probes`` pass through to :func:`simulate`.  Telemetry
    enablement is part of the cache key, so a cached untraced result is
    never returned for a traced request; traced runs themselves are
    neither cached nor stored (their side effects — emitted events,
    probe samples — are the point of running them).

    ``use_store`` overrides the ``REPRO_STORE`` default for this call.
    """
    accesses = resolve_accesses(accesses)
    seed = default_seed() if seed is None else seed
    traced = (tracer is not None and tracer.enabled) or probes is not None
    key = cache_key(benchmark, config_name, accesses, seed, threads,
                    scheduler, mutate_key, traced)
    cacheable = (mutate is None or mutate_key is not None) and not traced
    if cacheable and key in _run_cache:
        _count_run("cache")
        return _run_cache[key]

    config = make_config(config_name, threads=threads, scheduler=scheduler)
    if mutate is not None:
        config = mutate(config)

    spec = None
    active_store = _store_for(use_store) if cacheable else None
    if active_store is not None:
        spec = store.job_spec(benchmark, config_name, accesses, seed,
                              threads, scheduler, mutate_key, config)
        stored = active_store.get(spec)
        if stored is not None:
            _run_cache[key] = stored
            _count_run("store")
            return stored

    result = simulate_job(config, benchmark, accesses, seed, threads,
                          tracer=tracer, probes=probes)
    _count_run("simulated")
    if cacheable:
        _run_cache[key] = result
        if active_store is not None:
            active_store.put(spec, result)
    return result


def run_configs(
    benchmark: str,
    config_names: Iterable[str],
    **kwargs,
) -> Dict[str, RunResult]:
    """Run one benchmark under several configurations (serially)."""
    return {name: run(benchmark, name, **kwargs) for name in config_names}


#: run() kwargs the parallel sweep path models explicitly.  Anything
#: else — telemetry, mutate callables, mutate_key, or a typo — forces
#: the serial path, where run() either handles it or raises TypeError,
#: so both paths see identical semantics and cache identities.
_PARALLEL_KWARGS = frozenset(
    {"accesses", "seed", "threads", "scheduler", "use_store"}
)
_SERIAL_ONLY_KWARGS = frozenset({"tracer", "probes", "mutate", "mutate_key"})


def run_suite(
    benchmarks: Iterable[str],
    config_names: Iterable[str] = ("NP", "PS", "MS", "PMS"),
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    progress: Optional[SweepProgress] = None,
    **kwargs,
) -> Dict[str, Dict[str, RunResult]]:
    """Run several benchmarks under several configurations.

    ``jobs`` > 1 shards the (benchmark, config) grid across worker
    processes (default: ``REPRO_JOBS`` or serial); ``timeout`` bounds
    each parallel job in seconds.  Suites carrying telemetry, a
    ``mutate`` callable/``mutate_key``, or any kwarg the sweep engine
    does not model always execute serially — traced runs must emit
    their events in-process, callables do not cross process boundaries,
    and unknown kwargs must raise the same ``TypeError`` they would
    serially.  Parallel results compare equal to serial ones.

    ``progress`` is an optional live :class:`~repro.obs.progress.
    SweepProgress` driven as grid cells resolve; any sweepable suite —
    even a serial one — routes through the sweep engine so progress,
    metrics, and the provenance counters behave identically at every
    job count.
    """
    benchmarks = tuple(benchmarks)
    config_names = tuple(config_names)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    unknown = set(kwargs) - _PARALLEL_KWARGS - _SERIAL_ONLY_KWARGS
    sweepable = (
        not unknown
        and all(kwargs.get(k) is None for k in _SERIAL_ONLY_KWARGS)
    )
    if sweepable:
        from repro.experiments import sweep
        from repro.obs import spans as obs_spans

        specs = sweep.expand_grid(
            benchmarks,
            config_names,
            accesses=kwargs.get("accesses"),
            seed=kwargs.get("seed"),
            threads=kwargs.get("threads", 1),
            scheduler=kwargs.get("scheduler", "ahb"),
        )
        with obs_spans.default_collector().span(
            "sweep.suite", benchmarks=len(benchmarks),
            configs=len(config_names), jobs=jobs,
        ) as suite_span:
            outcome = sweep.run_jobs(
                specs, jobs=jobs, timeout=timeout,
                use_store=kwargs.get("use_store"),
                progress=progress,
                trace_parent=suite_span.context(),
            )
        results = iter(outcome.results)
        return {b: {c: next(results) for c in config_names}
                for b in benchmarks}
    if progress is not None:
        progress.begin(total=len(benchmarks) * len(config_names), workers=1)
        suite: Dict[str, Dict[str, RunResult]] = {}
        for benchmark in benchmarks:
            suite[benchmark] = {}
            for name in config_names:
                suite[benchmark][name] = run(benchmark, name, **kwargs)
                progress.job_done("serial")
        progress.finish()
        return suite
    return {b: run_configs(b, config_names, **kwargs) for b in benchmarks}


def preload_store(use_store: Optional[bool] = None) -> int:
    """Warm the in-process cache from the on-disk store.

    Loads every stored, unmutated result whose spec is exactly the one
    :func:`store.job_spec` builds today into the run cache, so a whole
    session (e.g. the benchmark suite) starts hot.  Everything else is
    skipped — never served stale: entries whose config fingerprint no
    longer matches the current preset definitions, and entries with
    any other spec shape (such as fast-model predictions written by
    older versions, whose specs carry extra ``fidelity`` and
    ``fast_model`` keys).  Also reaps aged-out ``.tmp-*`` orphans left
    by writers killed mid-put.  Returns the number of runs loaded.
    """
    active_store = _store_for(use_store)
    if active_store is None:
        return 0
    active_store.sweep_orphans()
    configs: Dict[Tuple[str, int, str], Optional[SystemConfig]] = {}
    loaded = 0
    for spec, result in active_store.entries():
        if spec.get("mutate_key") is not None:
            # Needs the mutate callable to verify; run() covers these
            # via its own read-through.
            continue
        ident = (spec["config"], spec["threads"], spec["scheduler"])
        if ident not in configs:
            try:
                configs[ident] = make_config(
                    spec["config"], threads=spec["threads"],
                    scheduler=spec["scheduler"])
            except (KeyError, ValueError):
                configs[ident] = None  # preset no longer exists
        config = configs[ident]
        if config is None or spec != store.job_spec(
            spec["benchmark"], spec["config"], spec["accesses"],
            spec["seed"], spec["threads"], spec["scheduler"], None, config,
        ):
            continue
        key = cache_key(spec["benchmark"], spec["config"], spec["accesses"],
                        spec["seed"], spec["threads"], spec["scheduler"])
        if key not in _run_cache:
            _run_cache[key] = result
            loaded += 1
    return loaded


def clear_cache() -> None:
    """Drop all cached traces and runs (tests use this for isolation).

    Only in-process state is dropped; the on-disk store is untouched
    (use ``store.get_store().clear()`` for that).
    """
    global _sim_count, _worker_sim_count
    _trace_cache.clear()
    _run_cache.clear()
    _sim_count = 0
    _worker_sim_count = 0


def cache_info() -> Mapping[str, int]:
    """Cache sizes plus the number of simulations actually executed.

    ``simulated`` counts runs executed in this process;
    ``worker_simulated`` counts results computed by sweep pool workers.
    """
    return {
        "traces": len(_trace_cache),
        "runs": len(_run_cache),
        "simulated": _sim_count,
        "worker_simulated": _worker_sim_count,
    }
