"""Benchmark entry point: one workload, one seed, one report.

    python3 perfbench/run.py --workload stream-prefetch --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The script builds nothing: it runs
the simulator from ``src/`` in child processes whose environment is
isolated from the caller's ``REPRO_*`` settings (``bench_env``).

* set-up: ``SETUP_SAMPLES`` fresh processes each import the simulator,
  generate every input trace and build every config (``bench_setup``);
  ``setup_s`` is their median time from spawn to ready.
* measurement: one child (``bench_measure``) runs the workload for
  ``--seconds`` and checks every result.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
the per-layer metrics and writes the full trace (layer and method
totals, job-level spans) to ``perfbench-out/``.  Each metric is
printed as ``name = value unit``, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Mapping, Optional, Tuple

from bench_env import child_env
from bench_jobs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Timed set-up samples per run.
SETUP_SAMPLES = 8
#: The whole run, children included, ends within this many seconds.
RUN_DEADLINE_S = 170.0

#: name -> unit, for ``--trace 0``.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "accesses_per_cal": "accesses/cal",
    "peak_rss_mb": "MB",
    "passed_job_share": "ratio",
}

#: Printed by every run but in the JSON of a traced run only: their
#: run-to-run spread on a drifting host is too wide to bound (README.md).
UNBOUNDED: Dict[str, str] = {
    "accesses_per_s": "accesses/s",
    "warm_ms": "ms",
    "warm_cal": "cal",
}

_SIM_LAYERS = ("system", "cpu", "cache", "prefetch.ps", "prefetch.ms", "controller",
               "controller.schedulers", "dram")

#: name -> unit, for ``--trace 1``.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.{m}": u for layer in _SIM_LAYERS
       for m, u in (("self_s", "s"), ("self_share", "ratio"), ("calls", "count"))},
    "experiments.self_s": "s",
    "experiments.self_share": "ratio",
    "workloads.self_s": "s",
    "workloads.self_share": "ratio",
    "experiments.store.self_s": "s",
    "experiments.store.self_share": "ratio",
    "trace.total_s": "s",
    "trace.overhead": "ratio",
    **UNBOUNDED,
    "controller.reads_arrived": "count",
    "controller.writes_arrived": "count",
    "controller.rejects": "count",
    "controller.read_queue_mean": "entries",
    "controller.caq_mean": "entries",
    "controller.lpq_mean": "entries",
    "dram.refused": "count",
    "dram.row_hit_ratio": "ratio",
    "dram.utilisation": "ratio",
    "prefetch.ms.reads_observed": "count",
    "prefetch.ms.generated": "count",
    "prefetch.ms.suppressed": "count",
    "prefetch.ms.useful_ratio": "ratio",
    "prefetch.ms.squash_ratio": "ratio",
    "prefetch.ms.delayed_regular": "count",
    "cpu.mem_stall_cycles": "cycles",
    "cache.l1_hit_ratio": "ratio",
    "cache.l3_miss_ratio": "ratio",
    "prefetch.ps.issued": "count",
    "prefetch.ps.dropped": "count",
    "system.ticks_executed": "count",
    "system.jumps": "count",
    "system.skip_share": "ratio",
    "system.mc_cycles_per_s": "cycles/s",
    "experiments.grid_s": "s",
    "experiments.store.get_s": "s",
    "experiments.store.put_s": "s",
    "experiments.store.hits": "count",
    "experiments.store.misses": "count",
    "experiments.store.puts": "count",
    "experiments.store.bytes": "bytes",
    "experiments.worker_runs": "count",
    "workloads.generate_s": "s",
    "workloads.accesses": "count",
    "repro.import_s": "s",
    "model.cycles": "cycles",
    "model.instructions": "count",
    "model.energy_uj": "uJ",
}


class ChildFailed(RuntimeError):
    pass


def run_child(script: str, args: List[str], env: Mapping[str, str],
              deadline: float) -> Tuple[float, dict]:
    """Run ``perfbench/<script>``; returns (spawn wall time, last-line JSON).

    The child gets its own session so that, on a timeout, it and any
    pool workers it started are killed together.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{script}: no time left before the run deadline")
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        cwd=ROOT, env=dict(env), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{script}: timed out after {timeout:.0f} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the session
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{script}: exit {proc.returncode}\n{err.strip()[-2000:]}")
    try:
        return spawned, json.loads(lines[-1])
    except ValueError:
        raise ChildFailed(f"{script}: last line is not JSON: {lines[-1][:200]}") from None


def setup_samples(workload: str, seed: int, env: Mapping[str, str],
                  deadline: float, count: int) -> List[Tuple[float, dict]]:
    """``count`` fresh set-up processes: (spawn-to-ready seconds, report)."""
    args = ["--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        spawned, out = run_child("bench_setup.py", args, env, deadline)
        samples.append((out["ready_unix"] - spawned, out))
    return samples


def setup_metrics(samples: List[Tuple[float, dict]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(s for s, _ in samples),
        "repro.import_s": statistics.median(o["import_s"] for _, o in samples),
        "workloads.generate_s": statistics.median(o["generate_s"] for _, o in samples),
    }


def report(metrics: Dict[str, float], units: Mapping[str, str],
           correct: bool, attempted: int, failed: int) -> str:
    """``name = value unit`` lines, then the JSON result line."""
    lines = [f"{name} = {metrics[name]:.6g} {units[name]}" for name in units if name in metrics]
    missing = [name for name in units if name not in metrics]
    if missing:
        lines.append(f"absent: {', '.join(missing)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    return "\n".join(lines + [json.dumps(result)])


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".perfbench-tmp", f"run-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = child_env(os.environ, ROOT, tmp)
    trace_out = os.path.join(ROOT, "perfbench-out",
                             f"{args.workload}-seed{args.seed}.trace.json")
    try:
        # one untimed sample first compiles the bytecode caches; the
        # timed ones are split around the measurement so that they see
        # the host at two different moments
        setup_samples(args.workload, args.seed, env, deadline, 1)
        samples = setup_samples(args.workload, args.seed, env, deadline, SETUP_SAMPLES // 2)
        _, out = run_child("bench_measure.py", [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", tmp, "--trace-out", trace_out,
        ], env, deadline)
        samples += setup_samples(args.workload, args.seed, env, deadline,
                                 SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setup = setup_metrics(samples)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    metrics = dict(out["metrics"])
    attempted, failed = int(out["attempted"]), int(out["failed"])
    for key, reason in out.get("failures", {}).items():
        print(f"failed: {key}: {reason}", file=sys.stderr)
    for name in out.get("absent", []):
        print(f"absent wrap target: {name}", file=sys.stderr)
    if args.trace:
        units = PER_LAYER
        metrics["repro.import_s"] = setup["repro.import_s"]
        metrics["workloads.generate_s"] = setup["workloads.generate_s"]
        metrics["workloads.accesses"] = float(WORKLOADS[args.workload].accesses_per_pass)
        print(f"trace written to {os.path.relpath(out['trace_file'], ROOT)}", file=sys.stderr)
    else:
        units = END_TO_END
        metrics["setup_s"] = setup["setup_s"]
        metrics["passed_job_share"] = 1.0 - failed / attempted
        for name, unit in UNBOUNDED.items():
            print(f"{name} = {metrics.pop(name):.6g} {unit} (unbounded)")
        print(f"failed_job_share = {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} jobs; {out['passes']} passes; "
              f"calibration kernel {out['calibration_s'] * 1000:.1f} ms)")
    print(report(metrics, units, failed == 0, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
