"""Lint infrastructure: config loading, severity levels, stale waivers,
baseline rename-stability, and fixture mounting.

These pin the ``[tool.repro.lint]`` plumbing (including the <=3.10
fallback TOML parser), the ``warn``/``off`` severity routing in the
runner, the stale-waiver reporting of full-catalogue runs, and the
path-free fingerprints that keep baselines stable across file renames.
"""

import dataclasses
import os

import pytest

from repro.analysislint.config import (
    DEFAULT_CONFIG,
    LintConfig,
    _parse_toml_subset,
    load_config,
)
from repro.analysislint.core import load_tree
from repro.analysislint.registry import write_registry
from repro.analysislint.runner import run_lint
from tests.unit._lint_util import FIXTURES, REPO_ROOT, mount, mount_text

#: a single seeded DET001 violation (wall-clock read in a sim package)
CLOCK_SRC = "import time\n\n\ndef now_cycles():\n    return time.time()\n"


def seed_repo(tmp_path, files):
    """A minimal repo root: the given files plus a committed stat-key
    registry (so the REG rule compares instead of reporting 'missing')."""
    root = str(tmp_path)
    for relpath, text in files.items():
        path = os.path.join(root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    os.makedirs(os.path.join(root, "src", "repro", "common"), exist_ok=True)
    write_registry(load_tree(root), root)
    return root


class TestConfigLoading:
    def test_repo_pyproject_matches_code_defaults(self):
        """The committed [tool.repro.lint] block mirrors DEFAULT_CONFIG —
        the contract that makes pyproject-less (fixture/narrowed) runs
        behave identically."""
        loaded = load_config(REPO_ROOT)
        assert loaded == DEFAULT_CONFIG

    def test_missing_root_or_file_falls_back(self, tmp_path):
        assert load_config(None) == DEFAULT_CONFIG
        assert load_config(str(tmp_path)) == DEFAULT_CONFIG

    def test_overlay_scope_severity_and_cap(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\n"
            "metric_label_cap = 5\n"
            "[tool.repro.lint.scope]\n"
            'fleet_packages = ["experiments"]\n'
            "[tool.repro.lint.severity]\n"
            'HYG001 = "warn"\n'
            'DET004 = "off"\n'
            'BAD001 = "loud"\n'  # invalid level: dropped
        )
        config = load_config(str(tmp_path))
        assert config.metric_label_cap == 5
        assert config.fleet_packages == ("experiments",)
        # untouched scopes keep their defaults
        assert config.sim_packages == DEFAULT_CONFIG.sim_packages
        assert config.rule_severity("HYG001") == "warn"
        assert config.rule_severity("DET004") == "off"
        assert config.rule_severity("BAD001") == "error"
        assert config.rule_severity("DET001") == "error"

    def test_malformed_pyproject_falls_back(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("this is not toml [at all\n")
        assert load_config(str(tmp_path)) == DEFAULT_CONFIG


class TestFallbackTomlParser:
    def test_parses_the_committed_pyproject(self):
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
            doc = _parse_toml_subset(fh.read())
        lint = doc["tool"]["repro"]["lint"]
        assert lint["metric_label_cap"] == 3
        assert tuple(lint["scope"]["fleet_packages"]) == ("obs",)
        assert tuple(lint["allow"]["wallclock"]) == DEFAULT_CONFIG.wallclock_allowlist

    def test_agrees_with_tomllib_when_available(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
            text = fh.read()
        subset = _parse_toml_subset(text)["tool"]["repro"]["lint"]
        full = tomllib.loads(text)["tool"]["repro"]["lint"]
        assert subset == full

    def test_junk_outside_lint_tables_is_skipped(self):
        doc = _parse_toml_subset(
            "[tool.ruff]\n"
            "select = [\n"
            '  "E4",\n'
            "]\n"
            "[tool.repro.lint]\n"
            "metric_label_cap = 2\n"
        )
        assert doc["tool"]["repro"]["lint"]["metric_label_cap"] == 2

    def test_multiline_array_inside_lint_table_raises(self):
        with pytest.raises(ValueError, match="single-line"):
            _parse_toml_subset(
                "[tool.repro.lint.scope]\n"
                "sim_packages = [\n"
                '  "cache",\n'
                "]\n"
            )


class TestSeverityRouting:
    def test_warn_reports_without_failing(self, tmp_path):
        root = seed_repo(tmp_path, {"src/repro/controller/clock.py": CLOCK_SRC})
        config = dataclasses.replace(DEFAULT_CONFIG, severity={"DET001": "warn"})
        result = run_lint(
            root=root, baseline_path=os.path.join(root, "bl.json"), config=config
        )
        assert result.ok
        assert [f.rule for f in result.warnings] == ["DET001"]
        assert "warning" in result.render()
        assert result.split.new == []

    def test_off_skips_the_rule_entirely(self, tmp_path):
        root = seed_repo(tmp_path, {"src/repro/controller/clock.py": CLOCK_SRC})
        config = dataclasses.replace(DEFAULT_CONFIG, severity={"DET001": "off"})
        result = run_lint(
            root=root, baseline_path=os.path.join(root, "bl.json"), config=config
        )
        assert result.ok
        assert result.warnings == []

    def test_default_severity_fails_check(self, tmp_path):
        root = seed_repo(tmp_path, {"src/repro/controller/clock.py": CLOCK_SRC})
        result = run_lint(root=root, baseline_path=os.path.join(root, "bl.json"))
        assert not result.ok
        assert [f.rule for f in result.split.new] == ["DET001"]


class TestStaleWaivers:
    def test_unused_waiver_reported(self, tmp_path):
        root = seed_repo(
            tmp_path,
            {"src/repro/controller/noop.py": "x = 1  # lint: resource-ok\n"},
        )
        result = run_lint(root=root, baseline_path=os.path.join(root, "bl.json"))
        assert result.stale_waivers == [
            ("src/repro/controller/noop.py", 1, "resource-ok")
        ]
        assert "stale waiver" in result.render()

    def test_used_waiver_not_reported(self, tmp_path):
        root = seed_repo(
            tmp_path,
            {
                "src/repro/controller/clock.py": CLOCK_SRC.replace(
                    "return time.time()",
                    "return time.time()  # lint: waive=DET001",
                )
            },
        )
        result = run_lint(root=root, baseline_path=os.path.join(root, "bl.json"))
        assert result.ok  # the waiver suppressed the finding...
        assert result.stale_waivers == []  # ...so it is not stale

    def test_narrowed_rule_runs_skip_collection(self, tmp_path):
        from repro.analysislint.determinism import WallClockRule

        root = seed_repo(
            tmp_path,
            {"src/repro/controller/noop.py": "x = 1  # lint: resource-ok\n"},
        )
        result = run_lint(
            root=root,
            rules=[WallClockRule()],
            baseline_path=os.path.join(root, "bl.json"),
        )
        assert result.stale_waivers == []

    def test_prose_mentioning_the_syntax_is_not_a_waiver(self):
        tree = mount_text(
            "#: docs may say ``# lint: resource-ok`` without waiving\n" "x = 1\n",
            "src/repro/obs/docsy.py",
        )
        assert tree.files[0].waivers == {}


class TestBaselineRenameStability:
    def test_rename_keeps_findings_baselined(self, tmp_path):
        baseline = str(tmp_path / "bl.json")
        root = seed_repo(tmp_path, {"src/repro/controller/clock.py": CLOCK_SRC})
        run_lint(root=root, baseline_path=baseline, update_baseline=True)

        # move the offending file; the fingerprint must follow it
        old = os.path.join(root, "src", "repro", "controller", "clock.py")
        new = os.path.join(root, "src", "repro", "controller", "timebase.py")
        os.replace(old, new)
        result = run_lint(root=root, baseline_path=baseline)
        assert result.ok
        assert [f.rule for f in result.split.baselined] == ["DET001"]
        assert result.split.stale == []


class TestFixtureMounting:
    def test_every_fixture_parses_and_mounts(self):
        names = sorted(
            name
            for name in os.listdir(FIXTURES)
            if name.endswith(".py") and name != "__init__.py"
        )
        assert names, "lint_fixtures directory is empty?"
        for name in names:
            tree = mount((name, f"src/repro/controller/{name}"))
            assert tree.files[0].relpath == f"src/repro/controller/{name}"

    def test_mounted_relpath_drives_package_scoping(self):
        tree = mount(("det_violations.py", "src/repro/dram/det_violations.py"))
        assert tree.in_packages({"dram"}) == tree.files
        assert tree.in_packages({"obs"}) == []

    def test_mount_text_root_override(self, tmp_path):
        tree = mount_text("x = 1\n", "src/repro/obs/t.py", root=str(tmp_path))
        assert tree.root == str(tmp_path)
        assert tree.get("src/repro/obs/t.py") is not None
