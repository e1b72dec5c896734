"""Unit tests for the adversarial fuzzer (space, objectives, search)."""

import json
import random

import pytest

from repro.scenarios.fuzzer import report_path, run_fuzz, save_report
from repro.scenarios.objectives import OBJECTIVES, get_objective
from repro.scenarios.space import FuzzSpace, candidate_name
from repro.system.presets import make_config
from repro.system.results import RunResult
from repro.workloads.dynamic import resolve_workload, workload_benchmark


def result(config="PMS", cycles=1000, inserts=100.0, read_hits=40.0):
    return RunResult(
        config_name=config, benchmark="wl:x", cycles=cycles,
        instructions=5000, cpu_ratio=4,
        stats={"pb.inserts": inserts, "pb.read_hits": read_hits},
    )


class TestFuzzSpace:
    def test_sampling_is_deterministic(self):
        space = FuzzSpace()
        first = [space.sample(random.Random(11)) for _ in range(1)]
        second = [space.sample(random.Random(11)) for _ in range(1)]
        assert [w.name for w in first] == [w.name for w in second]
        assert workload_benchmark(first[0]) == workload_benchmark(second[0])

    def test_samples_are_valid_and_in_bounds(self):
        space = FuzzSpace()
        rng = random.Random(0)
        for _ in range(50):
            candidate = space.sample(rng)
            candidate.validate()  # raises on any violation
            assert 1 <= candidate.interleave <= space.interleave_max
            assert 0.0 <= candidate.gap_mean <= space.gap_mean_max
            assert candidate.name.startswith("fuzz-")

    def test_mutation_stays_valid(self):
        space = FuzzSpace()
        rng = random.Random(1)
        parent = space.sample(rng)
        for _ in range(50):
            child = space.mutate(rng, parent)
            child.validate()
            assert 1 <= child.interleave <= space.interleave_max

    def test_mutation_changes_something(self):
        space = FuzzSpace()
        rng = random.Random(2)
        parent = space.sample(rng)
        children = {space.mutate(rng, parent).name for _ in range(10)}
        assert parent.name not in children

    def test_candidate_name_ignores_existing_name(self):
        space = FuzzSpace()
        candidate = space.sample(random.Random(3))
        renamed = type(candidate)(**{**candidate.__dict__, "name": "other"})
        assert candidate_name(renamed) == candidate.name

    def test_candidates_roundtrip_through_wl_names(self):
        space = FuzzSpace()
        candidate = space.sample(random.Random(4))
        decoded = resolve_workload(workload_benchmark(candidate))
        assert decoded == candidate


class TestObjectives:
    def test_registry_names(self):
        assert sorted(OBJECTIVES) == ["regret", "waste"]

    def test_get_objective_unknown(self):
        with pytest.raises(ValueError, match="unknown objective"):
            get_objective("speed")

    def test_waste_score_rises_as_usefulness_falls(self):
        waste = OBJECTIVES["waste"]
        useful = waste.score({"PMS": result(read_hits=90.0)})
        useless = waste.score({"PMS": result(read_hits=5.0)})
        assert useless > useful

    def test_waste_score_zero_without_inserts(self):
        waste = OBJECTIVES["waste"]
        assert waste.score(
            {"PMS": result(inserts=0.0, read_hits=0.0)}
        ) == 0.0

    def test_regret_positive_when_adaptive_loses(self):
        regret = OBJECTIVES["regret"]
        grid = {"PMS": result(cycles=1200)}
        for k in range(1, 6):
            grid[f"PMS_POLICY{k}"] = result(
                config=f"PMS_POLICY{k}", cycles=1000 + k
            )
        # best fixed policy is PMS_POLICY1 at 1001 cycles
        assert regret.score(grid) == pytest.approx((1200 / 1001 - 1) * 100)

    def test_every_objective_declares_cells(self):
        for objective in OBJECTIVES.values():
            assert objective.cells
            for config in objective.cells:
                make_config(config)  # every cell names a real preset


class TestRunFuzz:
    @pytest.fixture(autouse=True)
    def isolated_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_STORE", "1")

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            run_fuzz(budget=0)

    def test_same_seed_same_worst_case(self):
        kwargs = dict(budget=3, seed=9, objective="waste", accesses=250,
                      round_size=3, save=False)
        a = run_fuzz(**kwargs)
        b = run_fuzz(**kwargs)
        assert a.best is not None
        assert a.best.benchmark == b.best.benchmark
        assert a.best.score == b.best.score
        assert [r.name for r in a.results] == [r.name for r in b.results]
        # second run is answered from cache/store, not re-simulated
        assert b.stats.executed_serial == 0

    def test_report_persists_under_store(self, tmp_path):
        report = run_fuzz(budget=2, seed=4, objective="waste",
                          accesses=250, round_size=2)
        assert report.path == report_path("waste", 4)
        with open(report.path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["objective"] == "waste"
        assert payload["seed"] == 4
        assert len(payload["results"]) == 2
        assert payload["baseline"]["origin"] == "baseline"
        for row in payload["results"]:
            # persisted worst cases are fully decodable parameter sets
            resolve_workload(row["benchmark"]).validate()

    def test_save_report_is_atomic_and_rewritable(self, tmp_path):
        report = run_fuzz(budget=1, seed=6, accesses=250, save=False)
        path = save_report(report, root=str(tmp_path))
        assert path.endswith("waste-seed6.json")
        assert save_report(report, root=str(tmp_path)) == path

    def test_mutation_kicks_in_after_first_round(self):
        report = run_fuzz(budget=6, seed=2, accesses=250, round_size=2,
                          save=False)
        assert report.rounds == 3
        origins = {r.origin for r in report.results}
        assert "random" in origins
