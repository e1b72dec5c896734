"""Failure accounting and the traced pass of bench_measure, on tiny grids."""

import dataclasses

import bench_checks
import bench_measure
import pytest
from bench_jobs import DEFAULT_SEED, Workload
from repro.experiments import runner
from repro.system import simulator

TINY = Workload(name="tiny", why="test", benchmarks=("milc", "gamess"),
                configs=("NP", "PMS"), accesses=300)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "unused"))
    runner.clear_cache()
    b = bench_measure.Bench(TINY, DEFAULT_SEED, str(tmp_path))
    yield b
    runner.clear_cache()


def record_digests(bench):
    bench.digests = {
        job.ident: bench_checks.digest(runner.run(
            job.benchmark, job.config, accesses=TINY.accesses, seed=DEFAULT_SEED,
            use_store=False))
        for job in TINY.jobs
    }


def test_clean_pass_has_no_failures(bench):
    record_digests(bench)
    p = bench.one_pass(False, 2)
    bench.final_checks(p)
    assert bench.failures == {}
    assert bench.attempted == len(TINY.jobs) + 1
    assert p.store_cold["puts"] == len(TINY.jobs)
    assert p.store_warm["hits"] == len(TINY.jobs)


def test_raising_job_and_digest_mismatch_are_counted(bench, monkeypatch):
    record_digests(bench)
    bench.digests["gamess/PMS/s0/t1"] = "0" * 20
    real_run = runner.run

    def flaky(benchmark, config, **kw):
        if (benchmark, config) == ("milc", "NP"):
            raise RuntimeError("injected")
        return real_run(benchmark, config, **kw)

    monkeypatch.setattr(runner, "run", flaky)
    bench.one_pass(False, 1)
    assert bench.attempted == len(TINY.jobs)
    assert sorted(bench.failures) == ["pass1/gamess/PMS/s0/t1", "pass1/milc/NP/s0/t1"]
    assert "injected" in bench.failures["pass1/milc/NP/s0/t1"]
    assert "digest" in bench.failures["pass1/gamess/PMS/s0/t1"]


def test_identity_failure_is_reported():
    result = runner.run("milc", "PMS", accesses=300, seed=3, use_store=False)
    assert bench_checks.identity_failures(result, 300, 1) == []
    broken = dataclasses.replace(result, stats={**result.stats, "lpq.pushed": -1})
    (problem,) = bench_checks.identity_failures(broken, 300, 1)
    assert problem.startswith("ms.generated == lpq.pushed")
    assert bench_checks.identity_failures(result, 301, 1)  # l1 accesses


def test_traced_pass_self_times_sum_to_total(bench):
    record_digests(bench)
    original_run = simulator.System.run
    tracer = bench_measure.LayerTracer()
    bench.one_pass(False, 1, tracer)
    assert simulator.System.run is original_run  # restored
    assert bench.failures == {}
    assert tracer.absent == []
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [r["phase"] for r in roots] == ["cold", "warm"]
    totals = tracer.layer_totals()
    assert sum(s for _, s in totals.values()) == pytest.approx(
        sum(r["dur_s"] for r in roots), rel=1e-9)
    for layer in ("system", "cpu", "cache", "controller", "dram", "prefetch.ms",
                  "prefetch.ps", "controller.schedulers", "experiments.store"):
        assert totals[layer][0] > 0, layer
    assert len(tracer.systems) == len(TINY.jobs)
    names = {s["name"] for s in tracer.spans}
    assert {"workload", "job", "runner.simulate_job", "ResultStore.get",
            "ResultStore.put"} <= names


def test_untraced_pass_installs_nothing(bench, monkeypatch):
    installed = []
    monkeypatch.setattr(bench_measure, "install_wrappers", installed.append)
    record_digests(bench)
    bench.one_pass(False, 1)
    assert installed == []
