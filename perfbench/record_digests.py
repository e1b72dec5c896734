"""Record the result digest of every job at the default seed.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``, which the benchmark checks results
against.  Run it only for a change that is meant to alter simulated
results; a change that only makes the simulator faster must pass
against the digests as they are.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench_env import PINNED  # noqa: E402

for _name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_name]
os.environ.update(PINNED)

import bench_checks  # noqa: E402
from bench_jobs import DEFAULT_SEED, WORKLOADS  # noqa: E402
from repro.experiments import runner  # noqa: E402


def main() -> int:
    digests = {}
    for name, wl in WORKLOADS.items():
        digests[name] = {
            job.ident: bench_checks.digest(runner.run(
                job.benchmark, job.config, accesses=wl.accesses,
                seed=DEFAULT_SEED + job.seed_offset, threads=job.threads, use_store=False))
            for job in wl.jobs
        }
        print(f"{name}: {len(digests[name])} jobs")
    with open(bench_checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
