"""Tests for the Experiment/Sweep API and its CLI surface."""

import json

import pytest

from repro import (
    Experiment,
    GinFlow,
    GinFlowConfig,
    ParameterGrid,
    diamond_workflow,
    workflow_to_json,
)


def _tiny_diamond(horizontal=2, vertical=2):
    return diamond_workflow(horizontal, vertical, duration=0.1)


class TestParameterGrid:
    def test_product_order_first_key_slowest(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y"]})
        assert grid.cells() == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]
        assert len(grid) == 4
        assert grid.keys() == ("a", "b")

    def test_scalars_wrap_into_singletons(self):
        grid = ParameterGrid({"a": 1, "name": "solo"})
        assert grid.cells() == [{"a": 1, "name": "solo"}]

    def test_union(self):
        union = ParameterGrid({"a": [1]}) + ParameterGrid({"b": [2, 3]})
        assert union.cells() == [{"a": 1}, {"b": 2}, {"b": 3}]
        assert len(union) == 3
        assert union.keys() == ("a", "b")

    def test_empty_grid_yields_one_cell(self):
        assert ParameterGrid({}).cells() == [{}]

    def test_invalid_inputs(self):
        with pytest.raises(TypeError):
            ParameterGrid(42)
        with pytest.raises(ValueError):
            ParameterGrid({"a": []})

    def test_copy_constructor(self):
        grid = ParameterGrid({"a": [1, 2]})
        assert ParameterGrid(grid).cells() == grid.cells()

    def test_arbitrary_iterables_enumerate(self):
        import numpy as np

        grid = ParameterGrid({"nodes": np.array([5, 10, 15]), "tag": (v for v in ("a", "b"))})
        assert len(grid) == 6
        assert [cell["nodes"] for cell in grid.cells()[:3]] == [5, 5, 10]

    def test_dict_values_stay_scalar(self):
        grid = ParameterGrid({"options": {"deep": True}})
        assert grid.cells() == [{"options": {"deep": True}}]


class TestSweep:
    def test_smoke_2x2_grid(self):
        grid = ParameterGrid({"nodes": [5, 10], "broker": ["activemq", "kafka"]})
        report = GinFlow().sweep(_tiny_diamond, grid, repeats=2, name="smoke")
        assert len(report) == 8
        assert report.succeeded
        assert report.grid_keys == ("nodes", "broker")
        cells = report.cells()
        assert len(cells) == 4
        assert all(cell["runs"] == 2 for cell in cells)
        assert all(cell["success_rate"] == 1.0 for cell in cells)
        # kafka costs more than activemq in every cell pair
        by_key = {(cell["nodes"], cell["broker"]): cell for cell in cells}
        assert by_key[(5, "kafka")]["makespan_mean"] > by_key[(5, "activemq")]["makespan_mean"]

    def test_repeats_derive_seeds(self):
        report = GinFlow(GinFlowConfig(seed=10)).sweep(
            _tiny_diamond, ParameterGrid({"nodes": [5]}), repeats=3
        )
        assert [row["seed"] for row in report.rows] == [10, 11, 12]
        assert [row["repeat"] for row in report.rows] == [0, 1, 2]

    def test_sweeping_seed_keeps_cell_identity(self):
        report = GinFlow().sweep(_tiny_diamond, ParameterGrid({"seed": [1, 100]}), repeats=2)
        # the swept seed stays the cell identity; derived seeds go to run_seed
        assert [row["seed"] for row in report.rows] == [1, 1, 100, 100]
        assert [row["run_seed"] for row in report.rows] == [1, 2, 100, 101]
        cells = report.cells()
        assert len(cells) == 2
        assert all(cell["runs"] == 2 for cell in cells)

    def test_workflow_factory_parameters(self):
        grid = ParameterGrid({"horizontal": [2, 3], "nodes": [5]})
        report = GinFlow().sweep(_tiny_diamond, grid)
        assert [row["horizontal"] for row in report.rows] == [2, 3]

    def test_fixed_workflow_rejects_workflow_parameters(self):
        workflow = _tiny_diamond()
        with pytest.raises(ValueError, match="neither"):
            GinFlow().sweep(workflow, ParameterGrid({"mystery": [1]}))

    def test_fixed_workflow_accepts_config_parameters(self):
        report = GinFlow().sweep(_tiny_diamond(), ParameterGrid({"nodes": [5, 10]}))
        assert len(report) == 2 and report.succeeded

    def test_failure_parameters_inherit_base_model(self):
        from repro import Experiment, FailureModel

        config = GinFlowConfig(broker="kafka", failures=FailureModel(probability=0.5, delay=10.0))
        experiment = Experiment(workflow=_tiny_diamond, grid={"failure_delay": [0.0, 15.0]}, config=config)
        cell_config, _, _ = experiment._split_cell({"failure_delay": 15.0})
        # the base model's probability survives when only the delay is swept
        assert cell_config.failures.probability == 0.5
        assert cell_config.failures.delay == 15.0

    def test_failure_parameters_build_failure_model(self):
        report = GinFlow().sweep(
            lambda: diamond_workflow(3, 2, duration=5.0),
            ParameterGrid({"failure_probability": [0.0, 0.5]}),
            broker="kafka",
            nodes=5,
            seed=3,
        )
        without, with_failures = report.rows
        assert without["failures"] == 0
        assert with_failures["failures"] > 0
        assert report.succeeded

    def test_process_parallelism_matches_sequential(self):
        # _tiny_diamond is module-level, hence picklable for process pools
        grid = ParameterGrid({"nodes": [5, 10]})
        sequential = GinFlow().sweep(_tiny_diamond, grid)
        parallel = GinFlow().sweep(_tiny_diamond, grid, workers=2)
        assert [row["makespan"] for row in parallel.rows] == [row["makespan"] for row in sequential.rows]

    def test_process_parallelism_rejects_unpicklable(self):
        with pytest.raises(ValueError, match="picklable"):
            GinFlow().sweep(lambda: _tiny_diamond(), ParameterGrid({"nodes": [5, 10]}), workers=2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_a_worker_count_below_one_is_refused(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            GinFlow().sweep(_tiny_diamond, ParameterGrid({"nodes": [5, 10]}), workers=workers)
        # None and 1 both run in this process
        for sequential in (None, 1):
            assert GinFlow().sweep(_tiny_diamond, ParameterGrid({"nodes": [5]}), workers=sequential).succeeded

    def test_metrics_callback(self):
        def metrics(report, cell, workflow):
            return {"tasks": len(workflow)}

        report = GinFlow().sweep(_tiny_diamond, ParameterGrid({"nodes": [5]}), metrics=metrics)
        assert report.rows[0]["tasks"] == len(_tiny_diamond())

    def test_custom_runner_mapping_rows(self):
        def runner(workflow, config, cell):
            return {"payload": cell["x"] * 2}

        report = GinFlow().sweep(None, ParameterGrid({"x": [1, 2]}), runner=runner)
        assert [row["payload"] for row in report.rows] == [2, 4]

    def test_sweep_overrides_are_validated(self):
        with pytest.raises(ValueError):
            GinFlow().sweep(_tiny_diamond, ParameterGrid({"nodes": [5]}), broker="rabbitmq")

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            Experiment(workflow=_tiny_diamond, grid={"nodes": [5]}, repeats=0)


class TestSweepReport:
    @pytest.fixture()
    def report(self):
        grid = ParameterGrid({"nodes": [5, 10]})
        return GinFlow().sweep(_tiny_diamond, grid, repeats=2, name="export")

    def test_json_export(self, report, tmp_path):
        path = tmp_path / "sweep.json"
        text = report.to_json(path)
        payload = json.loads(text)
        assert payload["name"] == "export"
        assert len(payload["rows"]) == 4
        assert len(payload["cells"]) == 2
        assert json.loads(path.read_text()) == payload

    def test_csv_export(self, report, tmp_path):
        path = tmp_path / "sweep.csv"
        text = report.to_csv(path)
        lines = text.strip().splitlines()
        assert len(lines) == 5  # header + 4 runs
        assert "nodes" in lines[0] and "makespan" in lines[0]
        assert path.read_text() == text

    def test_format_table(self, report):
        table = report.format_table()
        assert "export" in table and "makespan_mean" in table

    def test_best_cell(self, report):
        best = report.best_cell("makespan_mean")
        assert best["nodes"] == 5  # fewer nodes deploy faster here
        assert report.best_cell("messages") == report.best_cell("messages_mean")

    def test_best_cell_unknown_metric(self, report):
        with pytest.raises(KeyError, match="velocity"):
            report.best_cell("velocity")

    def test_cells_omit_absent_metrics(self, report):
        cells = report.cells(metrics=("makespan", "not_measured"))
        assert all("makespan_mean" in cell for cell in cells)
        assert all("not_measured_mean" not in cell for cell in cells)

    def test_rows_and_cells_carry_timed_out(self, report):
        # every run row records whether it hit the wall-clock timeout, and
        # cells count them (ROADMAP "timeout propagation" item)
        assert all(row["timed_out"] is False for row in report.rows)
        assert all(cell["timed_out_runs"] == 0 for cell in report.cells())
        assert report.timed_out is False


class TestSweepCLI:
    @pytest.fixture()
    def workflow_file(self, tmp_path):
        path = tmp_path / "wf.json"
        workflow_to_json(diamond_workflow(2, 2, duration=0.05), path)
        return str(path)

    def test_sweep_command(self, workflow_file, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "out.csv"
        code = main([
            "sweep", workflow_file,
            "--param", "nodes=5,10",
            "--param", "broker=activemq,kafka",
            "--repeats", "1",
            "--csv", str(csv_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "cli-sweep" in output and "kafka" in output
        assert csv_path.exists()
        assert len(csv_path.read_text().strip().splitlines()) == 5

    def test_sweep_command_json(self, workflow_file, capsys):
        from repro.cli import main

        assert main(["sweep", workflow_file, "--param", "nodes=5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["succeeded"] is True

    def test_process_sweep_prints_the_sequential_bytes(self, capsys):
        from repro.cli import main

        argv = ["sweep", "--scenario", "montage", "--param", "size=100,200", "--json"]
        printed = []
        for extra in ([], ["--workers", "2"]):
            assert main(argv + extra) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and '"succeeded": true' in printed[0]

    def test_process_sweep_refuses_a_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--scenario", "forkjoin", "--param", "size=10,20", "--workers", "2", "--trace", str(trace)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--trace" in err and len(err.splitlines()) == 1
        assert not trace.exists()

    def test_sweep_requires_params(self, workflow_file, capsys):
        from repro.cli import main

        assert main(["sweep", workflow_file]) == 2
        assert "param" in capsys.readouterr().err

    def test_sweep_rejects_trailing_comma(self, workflow_file, capsys):
        from repro.cli import main

        assert main(["sweep", workflow_file, "--param", "nodes=5,"]) == 2
        assert "invalid --param" in capsys.readouterr().err

    def test_sweep_rejects_duplicate_param(self, workflow_file, capsys):
        from repro.cli import main

        assert main(["sweep", workflow_file, "--param", "nodes=5", "--param", "nodes=10"]) == 2
        assert "duplicate --param" in capsys.readouterr().err

    def test_sweep_refuses_a_worker_count_below_one(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--scenario", "forkjoin", "--param", "size=10,20", "--workers", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: workers must be >= 1") and len(err.splitlines()) == 1

    def test_backends_command(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        for name in ("runtime", "simulated", "asyncio", "centralized", "ssh", "mesos",
                     "activemq", "kafka", "grid5000", "uniform"):
            assert name in output

    def test_backends_command_json(self, capsys):
        from repro.cli import main

        assert main(["backends", "--kind", "broker", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in payload}
        assert {"activemq", "kafka"} <= names
        kafka = next(entry for entry in payload if entry["name"] == "kafka")
        assert kafka["capabilities"]["persistent"] is True

    def test_run_command_accepts_cluster_preset(self, workflow_file):
        from repro.cli import main

        assert main(["run", workflow_file, "--cluster", "uniform", "--nodes", "3"]) == 0
