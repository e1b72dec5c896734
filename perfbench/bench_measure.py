"""The measuring process: runs one workload's passes and reports them.

Started by ``run.py`` in an isolated environment (see ``bench_env``);
prints one JSON object as its last line of standard output.

A *pass* is one cold grid against a fresh result store (runner caches
cleared, traces generated beforehand and not timed) followed by
``WARM_REPEATS`` warm grids answered from that store, each after the
in-process caches are cleared again.  Every result of every pass is
checked (``bench_checks``); a failed check fails its job.

Untraced (``--trace 0``): passes repeat while the next one is expected
to end within ``--seconds`` (at least ``MIN_PASSES``), and each figure
is taken over all of them.  Times are also counted in calibration units
(:func:`calibration_s`).  No wrapper is installed.

Traced (``--trace 1``): one pass on the workload's own execution path
gives the experiments-layer counts; then untraced and traced passes
alternate, both serial in this process, because pool workers are
separate processes that wrappers installed here cannot see.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

import bench_checks
from bench_env import check_pinned
from bench_jobs import DEFAULT_SEED, WORKLOADS, Workload
from bench_trace import LayerTracer
from repro.experiments import runner, store
from repro.system import simulator
from repro.system.presets import make_config
from repro.system.results import RunResult

#: Warm grids timed after each cold grid (one takes a few ms).
WARM_REPEATS = 20
#: Cold passes an untraced run makes even if ``--seconds`` is short.
MIN_PASSES = 3
#: A job (or a pooled grid) running longer than this has failed.
JOB_TIMEOUT_S = 60.0
#: Iterations of the calibration kernel (about 15 ms on a 2-core Xeon VM).
CALIBRATION_LOOPS = 150_000
#: Calibration period while a pooled grid runs (about 3 % of one core).
SAMPLE_EVERY_S = 0.5

Outcome = Union[RunResult, str]  # a str says why the job failed


class JobTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`JobTimeout` in this thread after ``seconds``."""
    def fire(signum, frame):
        raise JobTimeout(f"exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def calibration_s() -> float:
    """Host speed now: the CPU time of a fixed pure-Python loop.

    The loop is part of the benchmark, not of the program, so no change
    to the program moves it; it moves with the host.  The host's speed
    drifts in phases lasting seconds; timed right before and after each
    job, the loop follows those phases, and dividing the job's time by
    it removes most of the spread they cause.  It counts this thread's
    CPU time, so a sample taken while pool workers hold the cores
    measures the host, not the wait for a core.
    """
    start = time.thread_time()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i
    return time.thread_time() - start


class Timer:
    """Sums the wall seconds of timed blocks and, when calibrating,
    their length in calibration units: block time divided by the mean
    calibration time just before and just after it, and, for a block
    that runs in pool workers, every ``SAMPLE_EVERY_S`` in between.
    Consecutive blocks share the sample between them."""

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.seconds = 0.0
        self.units = 0.0
        if calibrate:
            #: the latest calibration sample
            self.cal = calibration_s()

    @contextmanager
    def block(self, sampled: bool = False) -> Iterator[None]:
        samples: List[float] = []
        stop = threading.Event()
        sampler = None
        if self.calibrate and sampled:
            def sample() -> None:
                while not stop.wait(SAMPLE_EVERY_S):
                    samples.append(calibration_s())
            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if sampler is not None:
                stop.set()
                sampler.join()
            self.seconds += elapsed
            if self.calibrate:
                cal = calibration_s()
                self.units += elapsed / statistics.mean([self.cal, cal, *samples])
                self.cal = cal


@dataclass
class Pass:
    results: List[Outcome]
    cold: Timer
    warm_s: List[float] = field(default_factory=list)
    #: mean calibration seconds just before and just after the warm grids
    warm_cal_s: float = 0.0
    warm_results: Optional[List[Outcome]] = None
    in_process_runs: int = 0
    store_cold: Dict[str, int] = field(default_factory=dict)
    store_warm: Dict[str, int] = field(default_factory=dict)
    store_bytes: int = 0


class Bench:
    """One workload at one seed, with its failure accounting."""

    def __init__(self, workload: Workload, seed: int, tmp: str) -> None:
        self.wl = workload
        self.seed = seed
        self.tmp = tmp
        self.jobs = workload.jobs
        self.attempted = 0
        self.failures: Dict[str, str] = {}
        self.digests = bench_checks.load_digests().get(workload.name, {})
        self._stores = 0
        self._passes = 0

    # -- running ---------------------------------------------------------
    def fresh_store(self) -> store.ResultStore:
        self._stores += 1
        os.environ["REPRO_STORE_DIR"] = os.path.join(self.tmp, f"store-{self._stores}")
        return store.get_store()

    def pregenerate(self) -> None:
        for job in self.jobs:
            for t in range(job.threads):
                runner.get_trace(job.benchmark, self.wl.accesses,
                                 self.seed + job.seed_offset + t)

    def run_grid(self, pooled: bool, timer: Timer,
                 tracer: Optional[LayerTracer] = None) -> List[Outcome]:
        """One grid, timed job by job (or as a whole when pooled).

        Returns outcomes aligned with ``self.jobs``.
        """
        wl = self.wl
        if pooled:
            try:
                with deadline(JOB_TIMEOUT_S), timer.block(sampled=True):
                    suite = runner.run_suite(wl.benchmarks, wl.configs, jobs=wl.pool_jobs,
                                             accesses=wl.accesses, seed=self.seed,
                                             threads=wl.threads)
            except Exception as exc:  # every job of the grid failed with it
                return [f"grid raised {exc!r}"] * len(self.jobs)
            return [suite[job.benchmark][job.config] for job in self.jobs]
        out: List[Outcome] = []
        for job in self.jobs:
            span = tracer.span("job", "experiments", job=job.ident) if tracer else nullcontext()
            try:
                with deadline(JOB_TIMEOUT_S), span, timer.block():
                    out.append(runner.run(job.benchmark, job.config, accesses=wl.accesses,
                                          seed=self.seed + job.seed_offset,
                                          threads=job.threads))
            except Exception as exc:
                out.append(f"raised {exc!r}")
        return out

    def one_pass(self, pooled: bool, warm: int, tracer: Optional[LayerTracer] = None) -> Pass:
        """A cold grid on a fresh store, then ``warm`` warm grids.

        With a ``tracer``, its wrappers are in place from after the
        (untimed) trace generation until the last warm grid ends.
        """
        active = self.fresh_store()
        runner.clear_cache()
        self.pregenerate()
        if tracer is None:
            root = lambda phase: nullcontext()  # noqa: E731
        else:
            install_wrappers(tracer)
            root = lambda phase: tracer.span("workload", "experiments", phase=phase)  # noqa: E731
        gc.collect()  # garbage of the last pass is not this pass's cost
        calibrate = tracer is None  # calibration inside a traced pass would count as a layer
        try:
            cold = Timer(calibrate)
            with root("cold"):
                results = self.run_grid(pooled, cold, tracer)
            p = Pass(results, cold, in_process_runs=runner.cache_info()["simulated"],
                     store_cold=active.stats.as_dict(), store_bytes=store_bytes(active.root))
            # warm grids last milliseconds: they are calibrated as one
            # block, since a calibration between them would evict their
            # working set from the CPU caches
            for i in range(warm):
                runner.clear_cache()
                gc.collect()
                with root("warm"):
                    start = time.perf_counter()
                    again = self.run_grid(pooled, Timer(False), tracer)
                    p.warm_s.append(time.perf_counter() - start)
                if i == 0:
                    p.warm_results = again
                    p.store_warm = active.stats.as_dict()
            if calibrate:
                p.warm_cal_s = (cold.cal + calibration_s()) / 2
        finally:
            if tracer is not None:
                tracer.restore()
        self.check(p)
        return p

    # -- checking --------------------------------------------------------
    def fail(self, key: str, reason: str) -> None:
        self.failures[key] = reason

    def check(self, p: Pass) -> None:
        """Count and check every job of a pass."""
        self._passes += 1
        warm = p.warm_results or [None] * len(self.jobs)
        for job, cold, again in zip(self.jobs, p.results, warm):
            self.attempted += 1
            key = f"pass{self._passes}/{job.ident}"
            if isinstance(cold, str):
                self.fail(key, cold)
                continue
            problems = bench_checks.identity_failures(cold, self.wl.accesses, job.threads)
            if isinstance(again, str):
                problems.append(f"warm {again}")
            elif again is not None:
                problems.append(bench_checks.equality_failure("warm vs cold", cold, again))
            if self.seed == DEFAULT_SEED:
                problems.append(bench_checks.digest_failure(self.digests, job.ident, cold))
            problems = [p for p in problems if p]
            if problems:
                self.fail(key, "; ".join(problems))

    def final_checks(self, last: Pass) -> None:
        """Reference-loop equality, and the digest at the default seed."""
        index = self.wl.check_job
        job = self.jobs[index]
        config = make_config(job.config, threads=job.threads)
        self.attempted += 1
        cold = last.results[index]
        if not isinstance(cold, str):
            try:
                with deadline(JOB_TIMEOUT_S):
                    traces = [runner.get_trace(job.benchmark, self.wl.accesses,
                                               self.seed + job.seed_offset + t)
                              for t in range(job.threads)]
                    ref = simulator.simulate(config, traces, loop="reference")
                problem = bench_checks.equality_failure("reference vs event loop", cold, ref)
            except Exception as exc:
                problem = f"reference loop raised {exc!r}"
            if problem:
                self.fail(f"reference/{job.ident}", problem)
        if self.seed != DEFAULT_SEED:
            self.attempted += 1
            try:
                with deadline(JOB_TIMEOUT_S):
                    golden = runner.simulate_job(config, job.benchmark, self.wl.accesses,
                                                 DEFAULT_SEED + job.seed_offset, job.threads)
                problem = bench_checks.digest_failure(self.digests, job.ident, golden)
            except Exception as exc:
                problem = f"default-seed job raised {exc!r}"
            if problem:
                self.fail(f"default-seed/{job.ident}", problem)


def install_wrappers(tracer: LayerTracer) -> None:
    """Wrap the System (and, through it, each component) and the runner."""
    tracer.install_system(simulator.System)
    tracer.wrap_function("workloads", runner, "get_trace")
    tracer.wrap_function("experiments", runner, "simulate_job")
    tracer.wrap_method("experiments.store", store.ResultStore, "get")
    tracer.wrap_method("experiments.store", store.ResultStore, "put")


def store_bytes(root: str) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(root) if e.name.endswith(".json"))
    except OSError:
        return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    deadline_at = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline_at:
        time.sleep(0.05)  # pool workers exit after shutdown; reap them
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sum_stat(results: List[Outcome], *keys: str) -> float:
    return float(sum(r.stats.get(k, 0) for r in results if not isinstance(r, str) for k in keys))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_metrics(results: List[Outcome]) -> Dict[str, float]:
    """Per-layer counts from the results' own statistics (exact)."""
    ok = [r for r in results if not isinstance(r, str)]
    s = lambda *keys: sum_stat(ok, *keys)  # noqa: E731
    ticks = s("mc.ticks")
    return {
        "controller.reads_arrived": s("mc.reads_arrived"),
        "controller.writes_arrived": s("mc.writes_arrived"),
        "controller.rejects": s("mc.read_rejects", "mc.write_rejects"),
        "controller.read_queue_mean": ratio(s("mc.occ_read_queue"), ticks),
        "controller.caq_mean": ratio(s("mc.occ_caq"), ticks),
        "controller.lpq_mean": ratio(s("mc.occ_lpq"), ticks),
        "dram.row_hit_ratio": ratio(s("dram.row_hits"), s("dram.issued")),
        "prefetch.ms.reads_observed": s("ms.reads_observed"),
        "prefetch.ms.generated": s("ms.generated"),
        "prefetch.ms.suppressed": s("engine.suppressed"),
        "prefetch.ms.useful_ratio": ratio(s("pb.read_hits"), s("pb.inserts")),
        "prefetch.ms.squash_ratio": ratio(s("lpq.squashed"), s("lpq.pushed")),
        "prefetch.ms.delayed_regular": s("mc.delayed_regular"),
        "cpu.mem_stall_cycles": s("core.stall_cycles_mem"),
        "cache.l1_hit_ratio": ratio(s("l1.hits"), s("l1.hits", "l1.misses")),
        "cache.l3_miss_ratio": ratio(s("l3.misses"), s("l3.hits", "l3.misses")),
        "prefetch.ps.issued": s("core.ps_issued"),
        "prefetch.ps.dropped": s("core.ps_dropped_inflight", "core.ps_dropped_cached",
                                 "core.ps_dropped_queue"),
        "model.cycles": float(sum(r.cycles for r in ok)),
        "model.instructions": float(sum(r.instructions for r in ok)),
        "model.energy_uj": float(sum(r.power.energy_uj for r in ok if r.power)),
    }


# ---------------------------------------------------------------------------
def measure_untraced(bench: Bench, seconds: float) -> Dict[str, object]:
    pooled = bench.wl.pool_jobs > 0
    start = time.perf_counter()
    passes: List[Pass] = []
    # stop before a pass that would end past the measuring window
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + passes[-1].cold.seconds < seconds):
        passes.append(bench.one_pass(pooled, WARM_REPEATS))
    bench.final_checks(passes[-1])
    # Host speed drifts in phases lasting seconds, so a run's figure
    # averages over its passes rather than picking one: all accesses
    # over all cold time, and the mean of each pass's median warm grid.
    # The *_cal forms measure time in calibration-kernel units instead.
    accesses = bench.wl.accesses_per_pass * len(passes)
    return {
        "metrics": {
            "accesses_per_s": accesses / sum(p.cold.seconds for p in passes),
            "accesses_per_cal": accesses / sum(p.cold.units for p in passes),
            "warm_ms": 1000.0 * statistics.mean(statistics.median(p.warm_s) for p in passes),
            "warm_cal": statistics.mean(statistics.median(p.warm_s) / p.warm_cal_s
                                        for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        },
        "calibration_s": statistics.median(p.cold.seconds / p.cold.units for p in passes),
        "passes": len(passes),
    }


def measure_traced(bench: Bench, seconds: float, trace_out: str) -> Dict[str, object]:
    wl = bench.wl
    pooled = wl.pool_jobs > 0
    start = time.perf_counter()
    first = bench.one_pass(pooled, WARM_REPEATS)
    plain: List[Pass] = [] if pooled else [first]
    traced: List[LayerTracer] = []
    traced_s: List[float] = []
    counts: Optional[Dict[str, int]] = None
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(bench.one_pass(False, 0))
        tracer = LayerTracer()
        p = bench.one_pass(False, 1, tracer)
        traced.append(tracer)
        traced_s.append(p.cold.seconds)
        calls = {k: int(v[0]) for k, v in tracer.methods.items()}
        if counts is None:
            counts = calls
        elif calls != counts:
            bench.fail(f"trace/{len(traced)}", "wrapped call counts differ between passes")
    bench.final_checks(plain[-1])

    n = len(traced)
    layers: Dict[str, List[float]] = {}
    for tracer in traced:
        for layer, (calls, self_s) in tracer.layer_totals().items():
            acc = layers.setdefault(layer, [0, 0.0])
            acc[0] = calls
            acc[1] += self_s / n
    total = sum(s for _, s in layers.values())
    untraced_s = statistics.median(p.cold.seconds for p in plain)
    metrics: Dict[str, float] = {
        "trace.total_s": total,
        "trace.overhead": statistics.median(traced_s) / untraced_s,
    }
    for layer, (calls, self_s) in layers.items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.self_share"] = ratio(self_s, total)
        metrics[f"{layer}.calls"] = float(calls)
    methods = traced[0].methods
    metrics["experiments.store.get_s"] = sum(
        t.methods.get("experiments.store:ResultStore.get", [0, 0.0])[1] for t in traced) / n
    metrics["experiments.store.put_s"] = sum(
        t.methods.get("experiments.store:ResultStore.put", [0, 0.0])[1] for t in traced) / n

    results = first.results
    metrics.update(model_metrics(results))
    systems = traced[0].systems
    cycles = float(sum(s["cycles"] for s in systems))
    issued = sum_stat(results, "dram.issued")
    try_issue = sum(v[0] for k, v in methods.items() if k.startswith("dram:") and
                    k.endswith(".try_issue"))
    if try_issue:
        metrics["dram.refused"] = float(try_issue - issued)
    metrics["dram.utilisation"] = ratio(sum(s["dram_busy"] for s in systems), cycles)
    metrics["system.ticks_executed"] = float(sum(s.get("ticks_executed", 0) for s in systems))
    metrics["system.jumps"] = float(sum(s.get("jumps", 0) for s in systems))
    metrics["system.skip_share"] = ratio(sum(s.get("cycles_skipped", 0) for s in systems), cycles)
    metrics["system.mc_cycles_per_s"] = ratio(metrics["model.cycles"], untraced_s)
    hits_warm = first.store_warm.get("hits", 0) - first.store_cold.get("hits", 0)
    metrics.update({
        "accesses_per_s": wl.accesses_per_pass / first.cold.seconds,
        "warm_ms": 1000.0 * statistics.median(first.warm_s),
        "warm_cal": statistics.median(first.warm_s) / first.warm_cal_s,
        "experiments.grid_s": first.cold.seconds,
        "experiments.store.hits": float(hits_warm),
        "experiments.store.misses": float(first.store_cold.get("misses", 0)),
        "experiments.store.puts": float(first.store_cold.get("puts", 0)),
        "experiments.store.bytes": float(first.store_bytes),
        "experiments.worker_runs": float(
            sum(not isinstance(r, str) for r in first.results) - first.in_process_runs),
    })
    absent = sorted({a for t in traced for a in t.absent})
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump({"workload": wl.name, "seed": bench.seed, "passes": n,
                   "untraced_cold_s": [p.cold.seconds for p in plain],
                   "traced_cold_s": traced_s,
                   "metrics": metrics, **traced[-1].to_json()}, handle, indent=1)
    return {"metrics": metrics, "absent": absent, "passes": n, "trace_file": trace_out}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)
    check_pinned(os.environ, args.tmp)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.tmp)
    if args.trace:
        out = measure_traced(bench, args.seconds, args.trace_out)
    else:
        out = measure_untraced(bench, args.seconds)
    out.update(attempted=bench.attempted, failed=len(bench.failures),
               failures=dict(list(bench.failures.items())[:20]))
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
