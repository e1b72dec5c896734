"""Benchmark-suite configuration.

The benchmarks regenerate every table and figure of the paper.  Trace
length defaults to 12000 accesses per benchmark here (enough for the
qualitative shapes; ~20 min for the full suite on a laptop).  Export
``REPRO_TRACE_ACCESSES`` to override — e.g. 20000 reproduces the
numbers recorded in EXPERIMENTS.md.

Simulation runs are cached at two layers (see
repro.experiments.runner): an in-process dict, so benchmarks that
share runs — e.g. Figure 5 and Figure 8 — only pay for them once per
session, and the on-disk result store under ``.repro-results/``, so a
*re-run* of any suite pays for nothing at all.  The store is warmed
into the in-process cache once per session below; ``REPRO_STORE=0``
opts out.  Export ``REPRO_JOBS=N`` to shard the grid-shaped suites
across N worker processes.
"""

import os

os.environ.setdefault("REPRO_TRACE_ACCESSES", "12000")


def pytest_sessionstart(session):
    """Warm the in-process run cache from the on-disk result store."""
    from repro.experiments import runner, store

    if not store.store_enabled():
        return
    loaded = runner.preload_store()
    if loaded:
        print(
            f"repro result store: preloaded {loaded} runs "
            f"from {store.get_store().root}"
        )


def pytest_sessionfinish(session, exitstatus):
    """Report where this session's runs came from.

    On a re-run of any suite the summary must read ``0 simulated`` —
    every run served from the preloaded store (the acceptance check
    for the result store).
    """
    from repro.experiments import runner, store

    info = runner.cache_info()
    simulated = info["simulated"] + info["worker_simulated"]
    line = (
        f"repro result store: {simulated} simulated "
        f"({info['simulated']} in-process, {info['worker_simulated']} in "
        f"pool workers), {info['runs']} runs in cache"
    )
    if store.store_enabled():
        stats = store.get_store().stats
        line += f", store hits/puts {stats.hits}/{stats.puts}"
    print(f"\n{line}")


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
