"""The benchmark's three workloads: which jobs run, and how.

A job is one (benchmark, config, trace seed, threads) cell of a grid.
Trace seeds are the run's ``--seed`` plus a per-job offset, so one
benchmark seed fixes every input and a different seed gives different
traces of the same shape.  The simulator only ever sees the traces
generated from those seeds.

Grid sizes are chosen so that one cold pass takes a few seconds on a
2-core host, so a run fits several passes into ``--seconds``; the
commercial traces are longer so that their caches fill and write back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Seed whose job digests are recorded in ``digests.json``.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    """One grid cell; ``seed_offset`` is added to the run's seed."""

    benchmark: str
    config: str
    seed_offset: int = 0
    threads: int = 1

    @property
    def ident(self) -> str:
        return f"{self.benchmark}/{self.config}/s{self.seed_offset}/t{self.threads}"


@dataclass(frozen=True)
class Workload:
    """A named grid plus the execution path that runs it.

    ``pool_jobs`` is 0 for a grid driven job by job through
    ``runner.run`` in the benchmark process, or the worker count for a
    grid driven through ``runner.run_suite``.  ``check_job`` is re-run
    on the reference loop and, at the default seed, against its digest.
    """

    name: str
    why: str
    benchmarks: Tuple[str, ...]
    configs: Tuple[str, ...]
    accesses: int
    seed_offsets: Tuple[int, ...] = (0,)
    threads: int = 1
    pool_jobs: int = 0
    check_job: int = 0

    @property
    def jobs(self) -> Tuple[Job, ...]:
        # run_suite orders its grid benchmark-major, config-minor; the
        # in-process path uses the same order so results line up
        return tuple(
            Job(b, c, offset, self.threads)
            for offset in self.seed_offsets
            for b in self.benchmarks
            for c in self.configs
        )

    @property
    def accesses_per_pass(self) -> int:
        """Trace accesses simulated by one pass over the grid."""
        return len(self.jobs) * self.accesses * self.threads


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream-prefetch",
            why=(
                "long SPEC fp / NAS streams under PS, MS and PMS: the "
                "memory-side prefetcher, LPQ, prefetch buffer, scheduler "
                "and DRAM are all busy"
            ),
            benchmarks=("bwaves", "milc", "GemsFDTD", "lbm", "leslie3d", "mg", "ft"),
            configs=("PS", "MS", "PMS"),
            accesses=2000,
            check_job=4,  # milc/MS: a generating memory-side prefetcher
        ),
        Workload(
            name="compute-light",
            why=(
                "non-memory-intensive codes under NP and PS, many short "
                "jobs: core, event loop and cache dominate; bypasses the "
                "memory-side prefetcher"
            ),
            benchmarks=("gamess", "namd", "povray", "calculix", "ep"),
            configs=("NP", "PS"),
            accesses=2000,
            seed_offsets=(0, 1, 2, 3),
            check_job=1,  # gamess/PS
        ),
        Workload(
            name="commercial-smt-sweep",
            why=(
                "short-stream commercial traces on 2 SMT threads through "
                "run_suite with 2 workers: sweep engine, pool, store writes "
                "then reads"
            ),
            benchmarks=("tpcc", "trade2", "cpw2", "sap", "notesbench"),
            configs=("NP", "MS", "PMS"),
            accesses=6000,  # shorter traces never fill L3, so no writebacks
            threads=2,
            pool_jobs=2,
            check_job=2,  # tpcc/PMS
        ),
    )
}
