"""Environment isolation, the report format and the import rule."""

import ast
import json
import os
import subprocess
import sys

import bench_env
import pytest
import run
from conftest import BENCH, ROOT

HOSTILE = {
    "REPRO_LOOP": "reference",
    "REPRO_TRACE_ACCESSES": "7",
    "REPRO_SEED": "99",
    "REPRO_JOBS": "8",
    "REPRO_STORE": "0",
    "REPRO_STORE_DIR": "/nonexistent/store",
    "REPRO_METRICS": "1",
    "REPRO_SPANS": "1",
    "REPRO_SOMETHING_NEW": "1",
    "PYTHONPATH": "/nonexistent",
}


def test_child_env_drops_hostile_values(tmp_path):
    env = bench_env.child_env({**os.environ, **HOSTILE}, ROOT, str(tmp_path))
    bench_env.check_pinned(env, str(tmp_path))
    assert "REPRO_SOMETHING_NEW" not in env and "REPRO_TRACE_ACCESSES" not in env
    with pytest.raises(RuntimeError):
        bench_env.check_pinned({**env, "REPRO_LOOP": "reference"}, str(tmp_path))
    with pytest.raises(RuntimeError):
        bench_env.check_pinned({**env, "REPRO_SEED": "99"}, str(tmp_path))


def test_child_sees_isolated_settings(tmp_path):
    env = bench_env.child_env({**os.environ, **HOSTILE}, ROOT, str(tmp_path))
    probe = (
        "import json\n"
        "from repro.experiments import runner, store\n"
        "from repro.system import simulator\n"
        "print(json.dumps([simulator.default_loop_mode(), runner.default_jobs(),\n"
        "    runner.default_seed(), store.store_enabled(), store.store_root()]))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    loop, jobs, seed, enabled, root = json.loads(out.stdout)
    assert (loop, jobs, seed, enabled) == ("event", 1, 1, True)
    assert root.startswith(str(tmp_path))


def test_report_names_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
        metrics = {name: 1.5 for name in units}
        lines = run.report(metrics, units, True, 3, 0).splitlines()
        for name, unit in units.items():
            assert f"{name} = 1.5 {unit}" in lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["metrics"] == {n: {"value": 1.5, "unit": u} for n, u in units.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_report_lists_absent_metrics():
    text = run.report({"setup_s": 0.5}, run.END_TO_END, True, 1, 0)
    assert "absent: accesses_per_cal" in text
    assert "accesses_per_cal" not in json.loads(text.splitlines()[-1])["metrics"]


FORBIDDEN = ("repro.fabric", "repro.fastsim", "repro.scenarios", "repro.obs",
             "repro.telemetry", "repro.analysislint")


def test_benchmark_imports_no_retiring_package():
    offenders = []
    for folder in (BENCH, os.path.join(BENCH, "tests")):
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                offenders += [f"{name}: {m}" for m in modules
                              if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert offenders == []


def test_incomplete_checkout_fails_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in ("run.py", "bench_env.py", "bench_jobs.py"):
        (bench_dir / name).write_text(open(os.path.join(BENCH, name)).read())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compute-light",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
