"""One set-up sample: a fresh process makes the first job ready.

Imports the simulator, generates the trace of every input of the
workload and builds every job's config, then prints one JSON line with
the wall-clock time it became ready (``run.py`` subtracts the time it
started this process) and how long imports and trace generation took.
"""

from __future__ import annotations

import time

_t_start = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from repro.experiments import runner  # noqa: E402
from repro.system.presets import make_config  # noqa: E402

from bench_jobs import WORKLOADS  # noqa: E402

_t_imported = time.perf_counter()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    accesses = 0
    for key in sorted({(j.benchmark, args.seed + j.seed_offset + t)
                       for j in wl.jobs for t in range(j.threads)}):
        accesses += len(runner.get_trace(key[0], wl.accesses, key[1]))
    t1 = time.perf_counter()
    for job in wl.jobs:
        make_config(job.config, threads=job.threads)
    ready = time.time()
    sys.stdout.write(json.dumps({
        "ready_unix": ready,
        "import_s": _t_imported - _t_start,
        "generate_s": t1 - t0,
        "trace_accesses": accesses,
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
