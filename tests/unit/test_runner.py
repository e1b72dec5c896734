"""Unit tests for the experiment runner's environment handling."""

import pytest

from repro.experiments import runner


@pytest.fixture(autouse=True)
def clean(monkeypatch):
    runner.clear_cache()
    monkeypatch.delenv("REPRO_TRACE_ACCESSES", raising=False)
    monkeypatch.delenv("REPRO_SEED", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    yield
    runner.clear_cache()


class TestDefaults:
    def test_default_accesses(self):
        assert runner.default_accesses() == 20_000

    def test_env_overrides_accesses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ACCESSES", "777")
        assert runner.default_accesses() == 777

    def test_default_seed(self):
        assert runner.default_seed() == 1

    def test_env_overrides_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "42")
        assert runner.default_seed() == 42

    def test_default_jobs(self, monkeypatch):
        assert runner.default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert runner.default_jobs() == 4


class TestAccessesValidation:
    """``accesses=0`` means zero, not "use the default" (falsy-arg bug)."""

    def test_get_trace_rejects_zero(self):
        with pytest.raises(ValueError, match="positive trace length"):
            runner.get_trace("tonto", 0)

    def test_get_trace_rejects_negative(self):
        with pytest.raises(ValueError, match="positive trace length"):
            runner.get_trace("tonto", -5)

    def test_run_rejects_zero(self):
        with pytest.raises(ValueError, match="positive trace length"):
            runner.run("tonto", "NP", accesses=0)

    def test_none_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ACCESSES", "600")
        trace = runner.get_trace("tonto", None)
        assert len(trace.records) == 600


class TestTraceCache:
    def test_same_key_same_object(self):
        a = runner.get_trace("tonto", 500, seed=1)
        b = runner.get_trace("tonto", 500, seed=1)
        assert a is b

    def test_different_seed_different_trace(self):
        a = runner.get_trace("tonto", 500, seed=1)
        b = runner.get_trace("tonto", 500, seed=2)
        assert a.records != b.records

    def test_cache_info_counts(self):
        runner.get_trace("tonto", 500)
        runner.get_trace("milc", 500)
        assert runner.cache_info() == {
            "traces": 2, "runs": 0, "simulated": 0, "worker_simulated": 0,
        }

    def test_simulated_counter(self):
        runner.run("tonto", "NP", accesses=500, use_store=False)
        runner.run("tonto", "NP", accesses=500, use_store=False)  # cache hit
        assert runner.cache_info()["simulated"] == 1


class TestStoreReadThrough:
    def test_run_is_served_from_store_after_cache_clear(self):
        first = runner.run("tonto", "NP", accesses=500)
        runner.clear_cache()
        second = runner.run("tonto", "NP", accesses=500)
        assert second == first
        assert runner.cache_info()["simulated"] == 0

    def test_use_store_false_skips_the_store(self):
        from repro.experiments import store

        runner.run("tonto", "NP", accesses=500, use_store=False)
        assert len(store.get_store()) == 0

    def test_store_env_disable(self, monkeypatch):
        from repro.experiments import store

        monkeypatch.setenv("REPRO_STORE", "0")
        runner.run("tonto", "NP", accesses=500)
        assert len(store.get_store()) == 0


class TestRunConfigs:
    def test_run_configs_keys(self):
        results = runner.run_configs("tonto", ("NP", "MS"), accesses=800)
        assert set(results) == {"NP", "MS"}
        assert results["NP"].config_name == "NP"

    def test_run_suite_shape(self):
        results = runner.run_suite(("tonto",), ("NP",), accesses=800)
        assert set(results) == {"tonto"}
        assert set(results["tonto"]) == {"NP"}

    def test_run_suite_unknown_kwarg_raises_even_parallel(self):
        # A typo must raise the same TypeError it would serially, not be
        # silently dropped by the parallel path.
        with pytest.raises(TypeError):
            runner.run_suite(("tonto",), ("NP",), accesses=800, jobs=2,
                             acesses=900)

    def test_run_suite_mutate_key_stays_serial(self):
        # mutate_key is part of the cache identity; the parallel path
        # cannot model it, so the suite must fall back to serial.
        runner.run_suite(("tonto",), ("NP",), accesses=800, jobs=2,
                         mutate_key="x")
        key = runner.cache_key("tonto", "NP", 800, runner.default_seed(),
                               mutate_key="x")
        assert runner.cached_result(key) is not None

    def test_scheduler_in_cache_key(self):
        a = runner.run("tonto", "NP", accesses=800, scheduler="ahb")
        b = runner.run("tonto", "NP", accesses=800, scheduler="in_order")
        assert a is not b
