"""Integration tests: dynamic benchmarks through the real sweep stack.

Covers the two scenario-diversity paths end to end: a converted
external trace running as a content-addressed ``trace:`` benchmark
(store dedupe, digest staleness), and fuzz
candidates running as inline ``wl:`` benchmarks (CLI included).
"""

import json

import pytest

import repro.cli as cli
from repro.experiments.sweep import Job, run_jobs
from repro.scenarios.loaders import convert_trace
from repro.workloads.dynamic import trace_benchmark, workload_benchmark
from repro.workloads.synthetic import StreamWorkload


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_STORE", "1")


@pytest.fixture()
def converted(tmp_path):
    """A small external CSV converted to the internal format."""
    source = tmp_path / "ext.csv"
    rows = []
    for i in range(300):
        base = 0x100000 + 64 * (i % 50) + 0x4000 * (i // 50)
        rows.append(f"{hex(base)},{'W' if i % 7 == 0 else 'R'}\n")
    source.write_text("".join(rows))
    output = str(tmp_path / "ext.trace")
    convert_trace(str(source), output, default_gap=5)
    return output


class TestTraceBenchmarks:
    def test_sweep_and_store_dedupe(self, converted):
        benchmark = trace_benchmark(converted)
        specs = [Job(benchmark, "PMS", accesses=300, seed=1)]
        first = run_jobs(specs)
        assert first.stats.executed_serial == 1
        result = first.results[0]
        assert result.cycles > 0
        assert result.benchmark == benchmark
        # a fresh process would re-derive the same key: here the second
        # call is answered without re-simulating
        second = run_jobs(specs)
        assert second.stats.executed_serial == 0
        assert second.results[0].cycles == result.cycles

    def test_digest_mismatch_refuses_stale_file(self, converted):
        benchmark = trace_benchmark(converted)
        with open(converted, "a", encoding="utf-8") as handle:
            handle.write("0 999 0\n")
        with pytest.raises(ValueError, match="changed since"):
            run_jobs([Job(benchmark, "NP", accesses=100, seed=1)])


class TestWorkloadBenchmarks:
    def test_wl_benchmark_runs_and_dedupes(self):
        benchmark = workload_benchmark(StreamWorkload(name="wl-int-test"))
        outcome = run_jobs([Job(benchmark, "PS", accesses=300, seed=2)])
        assert outcome.results[0].cycles > 0
        again = run_jobs([Job(benchmark, "PS", accesses=300, seed=2)])
        assert again.stats.executed_serial == 0

    def test_wl_benchmark_parallel_matches_serial(self):
        benchmark = workload_benchmark(StreamWorkload(name="wl-par-test"))
        specs = [Job(benchmark, c, accesses=300, seed=2)
                 for c in ("NP", "PMS")]
        serial = run_jobs(specs, jobs=1, use_store=False)
        parallel = run_jobs(specs, jobs=2, use_store=False)
        for a, b in zip(serial.results, parallel.results):
            assert a.cycles == b.cycles
            assert a.stats == b.stats


class TestCliEndToEnd:
    def test_trace_convert(self, tmp_path, capsys):
        source = tmp_path / "ext.csv"
        source.write_text(
            "".join(f"{hex(0x8000 + 64 * i)},R\n" for i in range(200))
        )
        output = str(tmp_path / "ext.trace.gz")
        assert cli.main(["trace", "convert", str(source), "-o", output,
                         "--gap", "4"]) == 0
        out = capsys.readouterr().out
        assert "200 records" in out
        assert "benchmark name: trace:" in out

    def test_fuzz_cli_json_reproducible(self, capsys):
        argv = ["fuzz", "--budget", "2", "--seed", "3", "-n", "250",
                "--round-size", "2", "--json", "--no-store"]
        assert cli.main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["results"] == second["results"]
        assert first["baseline"]["score"] == second["baseline"]["score"]
        assert len(first["results"]) == 2
