"""Unit tests for CLI argument parsing (no simulation)."""

import pytest

from repro.cli import FIGURES, _build_parser


class TestParser:
    def test_run_defaults(self):
        args = _build_parser().parse_args(["run", "-b", "milc"])
        assert args.config == "PMS"
        assert args.accesses == 15_000
        assert args.threads == 1
        assert not args.json

    def test_run_json_flag(self):
        args = _build_parser().parse_args(["run", "-b", "milc", "--json"])
        assert args.json

    def test_suite_choices_enforced(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["suite", "-s", "spec2049"])

    def test_scheduler_choices_enforced(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["run", "-b", "x", "--scheduler", "magic"])

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    def test_trace_requires_output(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["trace", "-b", "milc"])

    def test_cost_threads_list(self):
        args = _build_parser().parse_args(["cost", "--threads", "1", "8"])
        assert args.threads == [1, 8]


class TestFigureRegistry:
    def test_every_paper_figure_registered(self):
        for fid in ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
                    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
                    "fig16"):
            assert fid in FIGURES

    def test_tables_registered(self):
        for tid in ("hardware", "smt", "scheduler"):
            assert tid in FIGURES

    def test_registry_targets_importable(self):
        import importlib

        for module_name, func_name, render_name in FIGURES.values():
            module = importlib.import_module(module_name)
            assert hasattr(module, func_name)
            if render_name:
                assert hasattr(module, render_name)


class TestObsFlags:
    def test_sweep_obs_defaults(self):
        args = _build_parser().parse_args(["sweep", "-b", "milc"])
        assert args.metrics_port is None
        assert not args.no_progress
        assert not args.verbose

    def test_sweep_obs_flags(self):
        args = _build_parser().parse_args(
            ["sweep", "-b", "milc", "--metrics-port", "0",
             "--no-progress", "--verbose"]
        )
        assert args.metrics_port == 0
        assert args.no_progress
        assert args.verbose

    def test_obs_serve_defaults(self):
        args = _build_parser().parse_args(["obs", "serve"])
        assert args.obs_command == "serve"
        assert args.port == 9123
        assert args.host == "127.0.0.1"
        assert args.directory is None

    def test_obs_serve_flags(self):
        args = _build_parser().parse_args(
            ["obs", "serve", "--port", "0", "--host", "0.0.0.0",
             "--dir", "/tmp/metrics"]
        )
        assert args.port == 0
        assert args.host == "0.0.0.0"
        assert args.directory == "/tmp/metrics"

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["obs"])

    def test_obs_trace_export_defaults(self):
        args = _build_parser().parse_args(["obs", "trace", "export"])
        assert args.obs_command == "trace"
        assert args.obs_trace_command == "export"
        assert args.input is None  # resolves to spans/latest.json
        assert args.output == "trace.json"

    def test_obs_trace_export_flags(self):
        args = _build_parser().parse_args(
            ["obs", "trace", "export", "--input", "/tmp/spans.json",
             "-o", "/tmp/out.json"]
        )
        assert args.input == "/tmp/spans.json"
        assert args.output == "/tmp/out.json"

    def test_obs_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["obs", "trace"])


class TestLintSubcommand:
    def test_lint_defaults(self):
        args = _build_parser().parse_args(["lint"])
        assert args.paths == []
        assert not args.check
        assert not args.json
        assert args.baseline is None
        assert not args.update_baseline
        assert not args.write_registry

    def test_lint_full_flag_set(self):
        args = _build_parser().parse_args(
            ["lint", "src/repro/controller", "--check", "--json",
             "--baseline", "custom.json"]
        )
        assert args.paths == ["src/repro/controller"]
        assert args.check and args.json
        assert args.baseline == "custom.json"

    def test_lint_write_registry(self):
        args = _build_parser().parse_args(["lint", "--write-registry"])
        assert args.write_registry


class TestRemovedFastTier:
    """The fast analytic tier is gone; its flags and verbs must fail."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "-b", "milc", "--fidelity", "exact"],
        ["trace", "calibrate", "t.trace"],
        ["fuzz", "--objective", "fidelity"],
    ], ids=["sweep-fidelity", "trace-calibrate", "fuzz-fidelity"])
    def test_rejected_by_argparse(self, argv):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(argv)


class TestTraceSubcommands:
    def test_generate_defaults(self):
        args = _build_parser().parse_args(
            ["trace", "generate", "-b", "milc", "-o", "out.trace"]
        )
        assert args.trace_command == "generate"
        assert args.benchmark == "milc"
        assert args.output == "out.trace"

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["trace", "generate", "-b", "milc"])

    def test_convert_defaults(self):
        args = _build_parser().parse_args(
            ["trace", "convert", "in.csv", "-o", "out.trace"]
        )
        assert args.trace_command == "convert"
        assert args.source == "in.csv"
        assert args.fmt is None
        assert args.line_size == 64
        assert args.gap == 20
        assert args.limit is None

    def test_convert_format_choices(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["trace", "convert", "in.vcd", "-o", "o", "--format", "vcd"]
            )


    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["trace"])


class TestFuzzSubcommand:
    def test_defaults(self):
        args = _build_parser().parse_args(["fuzz"])
        assert args.budget == 16
        assert args.seed == 0
        assert args.objective == "waste"
        assert args.top == 8
        assert args.round_size == 8
        assert args.accesses == 4000
        assert not args.json
        assert not args.no_store

    def test_full_flag_set(self):
        args = _build_parser().parse_args(
            ["fuzz", "--budget", "32", "--seed", "7",
             "--objective", "regret", "--top", "4", "--round-size", "16",
             "-n", "2000", "-j", "4", "--no-store", "--json"]
        )
        assert args.budget == 32
        assert args.seed == 7
        assert args.objective == "regret"
        assert args.top == 4
        assert args.round_size == 16
        assert args.accesses == 2000
        assert args.jobs == 4
        assert args.no_store and args.json

    def test_objective_choices_enforced(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fuzz", "--objective", "speed"])
