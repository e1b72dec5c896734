"""Parallel-vs-serial equivalence and cross-session store reuse.

The determinism guarantee of docs/experiments.md: a `run_suite(jobs=N)`
result compares equal, field for field, to the `jobs=1` result for the
same spec, and a second session re-simulates nothing because every run
is served from the on-disk store.
"""

import pytest

from repro.experiments import runner, store

ACCESSES = 1200
BENCHMARKS = ("tonto", "milc")
CONFIGS = ("NP", "PMS")


@pytest.fixture(autouse=True)
def clean():
    runner.clear_cache()
    yield
    runner.clear_cache()


class TestParallelEqualsSerial:
    def test_run_suite_jobs4_equals_jobs1(self):
        parallel = runner.run_suite(
            BENCHMARKS, CONFIGS, accesses=ACCESSES, jobs=4, use_store=False
        )
        runner.clear_cache()
        serial = runner.run_suite(
            BENCHMARKS, CONFIGS, accesses=ACCESSES, jobs=1, use_store=False
        )
        for bench in BENCHMARKS:
            for config in CONFIGS:
                p, s = parallel[bench][config], serial[bench][config]
                # dataclass equality covers every field, including the
                # stats dict and the nested PowerReport
                assert p == s, (bench, config)
                assert p.stats == s.stats

    def test_parallel_results_fill_the_run_cache(self):
        runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES, jobs=2)
        assert runner.cache_info()["runs"] == len(BENCHMARKS) * len(CONFIGS)
        # a follow-up serial call is served without simulating
        before = runner.cache_info()["simulated"]
        runner.run(BENCHMARKS[0], CONFIGS[0], accesses=ACCESSES)
        assert runner.cache_info()["simulated"] == before

    def test_pool_worker_runs_are_counted(self):
        runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES, jobs=2)
        info = runner.cache_info()
        # "simulated" stays in-process only; worker results count apart
        assert info["simulated"] == 0
        assert info["worker_simulated"] == len(BENCHMARKS) * len(CONFIGS)
        runner.clear_cache()
        assert runner.cache_info()["worker_simulated"] == 0


class TestStoreAcrossSessions:
    def test_second_session_simulates_nothing(self):
        runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES)
        st = store.get_store()
        assert len(st) == len(BENCHMARKS) * len(CONFIGS)

        runner.clear_cache()  # simulate a fresh interpreter
        st.stats.reset()
        again = runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES)
        assert runner.cache_info()["simulated"] == 0
        assert st.stats.hits == len(BENCHMARKS) * len(CONFIGS)
        assert {b: set(c) for b, c in again.items()} == {
            b: set(CONFIGS) for b in BENCHMARKS
        }

    def test_store_round_trip_preserves_derived_metrics(self):
        first = runner.run("tpcc", "PMS", accesses=ACCESSES)
        runner.clear_cache()
        second = runner.run("tpcc", "PMS", accesses=ACCESSES)
        assert second == first
        assert second.ipc == first.ipc
        assert second.coverage == first.coverage
        assert second.avg_read_latency() == first.avg_read_latency()
        assert second.read_latency_histogram() == first.read_latency_histogram()
        assert second.power.energy_uj == first.power.energy_uj

    def test_preload_store_warms_the_cache(self):
        runner.run_suite(BENCHMARKS, CONFIGS, accesses=ACCESSES)
        runner.clear_cache()
        loaded = runner.preload_store()
        assert loaded == len(BENCHMARKS) * len(CONFIGS)
        assert runner.cache_info()["runs"] == loaded
        runner.run(BENCHMARKS[0], CONFIGS[1], accesses=ACCESSES)
        assert runner.cache_info()["simulated"] == 0

    def test_preload_skips_stale_fingerprints(self, monkeypatch):
        runner.run("tonto", "NP", accesses=ACCESSES)
        runner.clear_cache()
        # a preset/config change after the entry was written
        monkeypatch.setattr(
            store, "config_fingerprint", lambda config: "deadbeef"
        )
        assert runner.preload_store() == 0

    def test_mutated_runs_round_trip_via_read_through(self):
        def degrade(config):
            config.ms_prefetcher.slh.epoch_reads = 500
            return config

        first = runner.run("tonto", "MS", accesses=ACCESSES,
                           mutate=degrade, mutate_key="epoch=500")
        runner.clear_cache()
        second = runner.run("tonto", "MS", accesses=ACCESSES,
                            mutate=degrade, mutate_key="epoch=500")
        assert second == first
        assert runner.cache_info()["simulated"] == 0

    def test_mutation_semantics_change_invalidates(self):
        def v1(config):
            config.ms_prefetcher.slh.epoch_reads = 500
            return config

        def v2(config):  # same mutate_key, different effect
            config.ms_prefetcher.slh.epoch_reads = 250
            return config

        runner.run("tonto", "MS", accesses=ACCESSES,
                   mutate=v1, mutate_key="epoch")
        runner.clear_cache()
        before = runner.cache_info()["simulated"]
        runner.run("tonto", "MS", accesses=ACCESSES,
                   mutate=v2, mutate_key="epoch")
        assert runner.cache_info()["simulated"] == before + 1


class TestTelemetryStaysSerial:
    def test_traced_suite_ignores_jobs(self):
        from repro.telemetry.probes import EpochProbes
        from repro.telemetry.tracer import Tracer

        tracer = Tracer()
        probes = EpochProbes(interval=1)

        def short_epochs(config):
            config.ms_prefetcher.slh.epoch_reads = 50
            return config

        results = runner.run_suite(
            ("tonto",), ("MS",), accesses=ACCESSES, jobs=4,
            tracer=tracer, probes=probes, mutate=short_epochs,
        )
        assert results["tonto"]["MS"].telemetry is not None
        assert probes.samples_taken > 0  # ran in THIS process, serially
        # traced runs are neither cached nor stored
        assert runner.cache_info()["runs"] == 0
        assert len(store.get_store()) == 0
