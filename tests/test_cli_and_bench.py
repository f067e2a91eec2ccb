"""Tests for the command line interface and the benchmark harnesses."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    experiment_scale,
    format_fig12,
    format_fig13,
    format_fig14,
    format_fig15,
    format_fig16,
    format_table,
    mean,
    run_fig15,
    run_matching_cost_ablation,
    std,
)
from repro.cli import build_parser, main
from repro.workflow import adaptive_diamond_workflow, diamond_workflow, workflow_to_json


@pytest.fixture()
def workflow_file(tmp_path):
    path = tmp_path / "wf.json"
    workflow_to_json(diamond_workflow(2, 2, duration=0.05), path)
    return str(path)


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "wf.json", "--broker", "kafka"])
        assert args.command == "run" and args.broker == "kafka"

    def test_validate_command(self, workflow_file, capsys):
        assert main(["validate", workflow_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_command_simulated(self, workflow_file, capsys):
        assert main(["run", workflow_file, "--nodes", "5"]) == 0
        output = capsys.readouterr().out
        assert "succeeded" in output

    def test_run_command_json_output(self, workflow_file, capsys):
        assert main(["run", workflow_file, "--nodes", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["succeeded"] is True

    def test_run_centralized_mode(self, workflow_file):
        assert main(["run", workflow_file, "--mode", "centralized"]) == 0

    def test_run_adaptive_workflow(self, tmp_path, capsys):
        path = tmp_path / "adaptive.json"
        workflow_to_json(adaptive_diamond_workflow(2, 2, duration=0.05), path)
        assert main(["run", str(path), "--nodes", "5"]) == 0
        assert "adaptations" in capsys.readouterr().out

    def test_show_hocl_command(self, workflow_file, capsys):
        assert main(["show-hocl", workflow_file]) == 0
        output = capsys.readouterr().out
        assert "SRC" in output and "DST" in output

    def test_missing_file_returns_error(self, capsys):
        assert main(["run", "nope.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_failure_config_rejected(self, workflow_file):
        # failures need Kafka; the CLI surfaces the configuration error
        assert main(["run", workflow_file, "--failure-probability", "0.5"]) == 2

    def test_the_reduction_flag_is_gone(self):
        """One reduction loop: ``--reduction`` is an unknown option, refused by
        argparse with its one ``error:`` line, exit 2 and no traceback."""
        argv = ["run", "--scenario", "longchain:size=40", "--reduction", "batch"]
        done = subprocess.run([sys.executable, "-m", "repro.cli", *argv], capture_output=True, text=True, timeout=60)
        errors = [line for line in done.stderr.splitlines() if "error:" in line]
        assert done.returncode == 2 and done.stdout == "", done.stderr
        assert len(errors) == 1 and errors[0].startswith("ginflow: error: unrecognized arguments: --reduction")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("form", [[], ["--names"], ["--json"]], ids=["text", "names", "json"])
    def test_an_unknown_scenario_is_refused_in_every_form(self, form, capsys):
        assert main(["scenarios", "bogus", *form]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: unknown scenario 'bogus'; expected one of (")

    def test_backends_lists_no_reduction_kind(self, capsys):
        assert main(["backends"]) == 0
        kinds = [line.split(" (")[0] for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
        assert kinds == ["runtime", "executor", "broker", "cluster"]
        assert main(["backends", "--json"]) == 0
        assert {entry["kind"] for entry in json.loads(capsys.readouterr().out)} == set(kinds)


class TestBenchHelpers:
    def test_experiment_scale_default(self, monkeypatch):
        monkeypatch.delenv("GINFLOW_FULL", raising=False)
        assert experiment_scale() == "small"
        assert experiment_scale("paper") == "paper"

    def test_experiment_scale_env(self, monkeypatch):
        monkeypatch.setenv("GINFLOW_FULL", "1")
        assert experiment_scale() == "paper"

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}], title="t")
        assert "t" in text and "2.50" in text

    def test_format_table_empty(self):
        assert "(no data)" in format_table([])

    def test_mean_std(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0
        assert std([2, 2, 2]) == 0.0
        assert std([1]) == 0.0


class TestCollateTrendPlot:
    @staticmethod
    def _artifact(wall):
        return {
            "benchmark": "hocl-reduction",
            "schema_version": 10,
            "scenarios": {
                name: {
                    "reactions": 100,
                    "match_attempts": 10,
                    "wall_seconds": wall * scale,
                    "naive": {"match_attempts": 99, "wall_seconds": wall * 10},
                    "speedup": {"match_attempts": 9.9, "wall_clock": 10.0},
                }
                for name, scale in (("montage-100-centralized", 1), ("sipht-200-centralized", 2))
            },
        }

    def test_plot_renders_svg(self, tmp_path):
        bench_dir = str(Path(__file__).resolve().parent.parent / "benchmarks")
        sys.path.insert(0, bench_dir)
        try:
            import collate_trend
        finally:
            sys.path.remove(bench_dir)
        for sha, wall in (("aaaaaaa", 1.0), ("bbbbbbb", 1.2)):
            (tmp_path / f"BENCH_reduction-{sha}.json").write_text(
                json.dumps(self._artifact(wall))
            )
        svg = tmp_path / "trend.svg"
        assert collate_trend.main(
            [str(tmp_path), "--order", "name", "--plot", str(svg)]
        ) == 0
        body = svg.read_text()
        assert body.startswith("<svg")
        assert "reduction wall seconds per commit" in body
        # one wall polyline per scenario
        assert body.count("<polyline") == 2 and "sipht-200-centralized" in body


class TestHarnesses:
    def test_fig15_harness(self):
        data = run_fig15()
        assert data["task_count"] == 118
        assert "Fig. 15" in format_fig15(data)

    def test_matching_cost_ablation_rows(self):
        rows = run_matching_cost_ablation(sizes=(5, 10))
        assert [row["solution_size"] for row in rows] == [5, 10]
        assert rows[0]["reactions"] == 4

    def test_formatters_accept_rows(self):
        rows = [
            {"connectivity": "simple", "horizontal": 1, "vertical": 1, "services": 3,
             "coordination_time": 1.0, "messages": 3, "succeeded": True}
        ]
        assert "Fig. 12" in format_fig12(rows)
        fig13_rows = [{"scenario": "s", "configuration": "1x1", "size": 1, "baseline_time": 1.0,
                       "adaptive_time": 2.0, "ratio": 2.0, "adaptations_triggered": 1, "succeeded": True}]
        assert "Fig. 13" in format_fig13(fig13_rows)
        fig14_rows = [{"executor": "ssh", "broker": "activemq", "nodes": 5, "deployment_time": 1.0,
                       "execution_time": 2.0, "total_time": 3.0, "repetitions": 1}]
        assert "Fig. 14" in format_fig14(fig14_rows)
        fig16_rows = [{"T": 0.0, "p": 0.2, "execution_time": 10.0, "execution_time_std": 1.0,
                       "failures": 2, "recoveries": 2, "repetitions": 1}]
        assert "Fig. 16" in format_fig16(fig16_rows, {"mean": 9.0, "std": 0.5})
