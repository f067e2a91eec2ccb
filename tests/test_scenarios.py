"""Tests for the scenario subsystem (:mod:`repro.scenarios`).

Covers the catalog's table (its rows, lookup, spec parsing), the
property-style invariants every catalog generator must satisfy (valid
acyclic workflow, seed determinism, size scaling, cost-profile metadata,
lossless JSON round-trip, end-to-end enactment on the simulated runtime),
the sweep integration (scenario grid axes), the timed-out surfacing through
sweeps, and the CLI surface (``ginflow scenarios`` / ``--scenario``).
"""

import json

import numpy as np
import pytest

from repro import GinFlow, GinFlowConfig, ParameterGrid
from repro.cli import main
from repro.experiments import Experiment, SweepReport
from repro.scenarios import (
    ScenarioError,
    available_scenarios,
    build_scenario,
    get_scenario,
    parse_scenario_spec,
)
from repro.scenarios.catalog import SCENARIOS
from repro.services import ServiceRegistry
from test_analysis import literal_keys
from repro.workflow import (
    JSONFormatError,
    Task,
    Workflow,
    workflow_from_dict,
    workflow_to_dict,
)

ALL_SCENARIOS = available_scenarios()


# ------------------------------------------------------------------- table
class TestCatalogTable:
    def test_the_catalog_is_nine_rows_in_listing_order(self):
        import repro.scenarios.catalog as catalog

        written = literal_keys(catalog.__file__, "SCENARIOS")
        assert tuple(written) == ALL_SCENARIOS == (
            "epigenomics", "cybershake", "inspiral", "sipht",
            "random-layered", "mapreduce", "forkjoin", "montage", "longchain",
        )

    def test_every_row_is_its_name_and_takes_size_and_seed(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name and scenario.description and scenario.structure
            assert {"size", "seed"} <= set(scenario.parameters()), name

    def test_every_description_is_a_whole_sentence(self):
        """One line, a full stop last, every bracket closed: a row never shows
        a docstring cut at its first line break."""
        for name, scenario in SCENARIOS.items():
            text = scenario.description
            assert text.endswith(".") and "\n" not in text, (name, text)
            assert text.count("(") == text.count(")"), (name, text)

    def test_lookup_reads_the_table(self, scratch_scenario):
        def chain(size: int = 5, seed: int = 0) -> Workflow:
            workflow = Workflow("test-chain")
            previous = None
            for index in range(size):
                workflow.add_task(Task(f"T{index}", "t", inputs=["x"] if index == 0 else []))
                if previous:
                    workflow.add_dependency(previous, f"T{index}")
                previous = f"T{index}"
            return workflow

        scratch_scenario("test-chain", chain, description="A tiny test chain.", structure="a chain")
        scenario = get_scenario("test-chain")
        assert scenario.description == "A tiny test chain."
        assert scenario.structure == "a chain"
        assert len(scenario.build(size=7)) == 7
        assert available_scenarios()[-1] == "test-chain"

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("definitely-not-registered")

    def test_build_rejects_unknown_parameters(self):
        with pytest.raises(ScenarioError, match="accepted parameters"):
            build_scenario("longchain:size=20,bogus=3")

    def test_factory_must_return_a_workflow(self, scratch_scenario):
        scratch_scenario("test-notwf", lambda size=1, seed=0: "nope")
        with pytest.raises(ScenarioError, match="not a Workflow"):
            build_scenario("test-notwf")

    def test_parameters_exposed_with_defaults(self):
        parameters = get_scenario("cybershake").parameters()
        assert parameters["size"] == 20
        assert parameters["seed"] == 0
        assert "synthesis_per_site" in parameters


# ------------------------------------------------------------ spec parsing
class TestSpecParsing:
    def test_bare_name(self):
        assert parse_scenario_spec("sipht") == ("sipht", {})

    def test_typed_parameters(self):
        name, params = parse_scenario_spec("cybershake:size=500,seed=3")
        assert name == "cybershake"
        assert params == {"size": 500, "seed": 3}
        assert isinstance(params["size"], int)

    def test_float_bool_and_string_values(self):
        _, params = parse_scenario_spec("random-layered:edge_probability=0.5,flag=true,tag=x")
        assert params == {"edge_probability": 0.5, "flag": True, "tag": "x"}

    @pytest.mark.parametrize(
        "bad", ["", "  ", ":size=1", "name:", "name:size", "name:size=", "name:size=1,size=2"]
    )
    def test_invalid_specs(self, bad):
        with pytest.raises(ScenarioError):
            parse_scenario_spec(bad)

    def test_overrides_win_over_spec(self):
        assert len(build_scenario("longchain:size=20", size=25)) == 25


# --------------------------------------------------- catalog invariants
@pytest.mark.parametrize("name", ALL_SCENARIOS)
class TestCatalogInvariants:
    def test_valid_acyclic_workflow(self, name):
        workflow = build_scenario(f"{name}:size=30,seed=2")
        workflow.validate()
        order = workflow.topological_order()
        assert len(order) == len(workflow)
        # the workflow can actually start: every entry task has initial inputs
        for entry in workflow.entry_tasks():
            assert workflow.task(entry).inputs, f"{name}: entry task {entry} has no input"
        # and converges: there is at least one exit task
        assert workflow.exit_tasks()

    def test_deterministic_for_a_fixed_seed(self, name):
        first = workflow_to_dict(build_scenario(f"{name}:size=40,seed=7"))
        second = workflow_to_dict(build_scenario(f"{name}:size=40,seed=7"))
        assert first == second

    def test_seed_changes_the_drawn_durations(self, name):
        first = build_scenario(f"{name}:size=40,seed=1")
        second = build_scenario(f"{name}:size=40,seed=2")
        assert [t.duration for t in first] != [t.duration for t in second]

    @pytest.mark.parametrize("size", [20, 200, 1000])
    def test_size_scaling(self, name, size):
        workflow = build_scenario(f"{name}:size={size},seed=1")
        # the generator rounds to the nearest realisable shape
        assert 0.75 * size <= len(workflow) <= 1.25 * size
        workflow.validate()

    def test_cost_profile_metadata_stamped(self, name):
        scenario = get_scenario(name)
        workflow = scenario.build(size=30, seed=3)
        for task in workflow:
            assert task.metadata["scenario"] == name
            stage = task.metadata["stage"]
            assert task.metadata["cost_class"] == stage
            assert isinstance(task.metadata["level"], int)
            assert task.metadata["idempotent"] is True
            low, high = scenario.cost_profile[stage]
            assert low <= task.duration <= high
        # at its defaults a family stamps every stage it declares, and no other
        assert {task.metadata["stage"] for task in scenario.build()} == set(scenario.cost_profile)

    def test_json_roundtrip_lossless(self, name):
        workflow = build_scenario(f"{name}:size=30,seed=4")
        document = workflow_to_dict(workflow)
        assert workflow_to_dict(workflow_from_dict(document)) == document
        # and survives an actual serialisation
        assert workflow_to_dict(workflow_from_dict(json.loads(json.dumps(document)))) == document

    def test_enacts_on_the_simulated_runtime(self, name):
        workflow = build_scenario(f"{name}:size=20,seed=1")
        report = GinFlow().run(workflow, nodes=8)
        assert report.succeeded
        assert not report.timed_out
        assert set(report.results) == set(workflow.exit_tasks())
        # seed-deterministic trace: an identical run reproduces the timeline
        replay = GinFlow().run(build_scenario(f"{name}:size=20,seed=1"), nodes=8)
        assert replay.makespan == report.makespan
        assert replay.messages_published == report.messages_published
        assert [e for e in replay.timeline] == [e for e in report.timeline]


# ------------------------------------------------------- sweep integration
class TestSweepIntegration:
    def test_scenario_specs_as_grid_axis(self):
        report = GinFlow().sweep(
            None,
            ParameterGrid({"scenario": ["forkjoin:size=20", "longchain:size=20"]}),
            nodes=5,
        )
        assert report.succeeded and not report.timed_out
        assert len(report.rows) == 2
        cells = report.cells()
        assert [cell["scenario"] for cell in cells] == ["forkjoin:size=20", "longchain:size=20"]
        assert all(cell["timed_out_runs"] == 0 for cell in cells)

    def test_scenario_axis_with_extra_workflow_parameters(self):
        report = GinFlow().sweep(
            None,
            ParameterGrid({"scenario": ["longchain"], "size": [20, 30]}),
            nodes=5,
        )
        assert report.succeeded
        assert len(report.rows) == 2

    def test_scenario_key_reaches_a_fixed_workflow_unchanged(self):
        # a fixed workflow cannot absorb grid parameters, 'scenario' included
        # — the key is only interpreted as a spec when the experiment has no
        # workflow source of its own (e.g. the fig13 driver sweeps its own
        # 'scenario' factory parameter)
        experiment = Experiment(
            workflow=build_scenario("longchain:size=5"),
            grid={"scenario": ["sipht"]},
        )
        with pytest.raises(ValueError, match="scenario"):
            experiment.run()

        def factory(scenario="x"):
            workflow = Workflow(f"factory-{scenario}")
            workflow.add_task(Task("A", "s", inputs=["x"]))
            return workflow

        report = Experiment(workflow=factory, grid={"scenario": ["a", "b"]}).run()
        assert [row["scenario"] for row in report.rows] == ["a", "b"]
        assert report.succeeded

    def test_scenario_factory_sweep(self):
        from functools import partial

        report = GinFlow().sweep(
            partial(build_scenario, "mapreduce"),
            ParameterGrid({"size": [20, 30]}),
            nodes=5,
        )
        assert report.succeeded
        assert len(report.rows) == 2


# ------------------------------------------------------ timed_out surfacing
class TestTimedOutSurfacing:
    def _stuck_sweep(self) -> SweepReport:
        services = ServiceRegistry()

        async def stuck():
            import asyncio

            await asyncio.sleep(30.0)

        services.register_function("stuck", stuck)
        workflow = Workflow("stuck", [Task("A", "stuck")])
        ginflow = GinFlow(GinFlowConfig(mode="asyncio"), registry=services)
        return ginflow.sweep(workflow, ParameterGrid({"nodes": [1]}), timeout=0.2)

    def test_sweep_rows_carry_timed_out(self):
        report = self._stuck_sweep()
        assert report.timed_out
        assert not report.succeeded
        assert all(row["timed_out"] for row in report.rows)
        assert report.cells()[0]["timed_out_runs"] == len(report.rows)

    def test_successful_sweep_is_not_timed_out(self):
        report = GinFlow().sweep(
            build_scenario("sipht:size=20"), ParameterGrid({"nodes": [5]})
        )
        assert not report.timed_out
        assert all(row["timed_out"] is False for row in report.rows)

    def test_sweep_report_property_without_column(self):
        # rows produced by custom runners may omit the column entirely
        assert SweepReport(rows=[{"succeeded": True}]).timed_out is False


# -------------------------------------------------- json format round-trip
class TestJsonFormatMetadata:
    def test_numpy_metadata_round_trips(self):
        workflow = Workflow("np")
        workflow.add_task(
            Task(
                "a",
                "s",
                inputs=[np.int64(3)],
                metadata={
                    "cost": np.int64(42),
                    "ratio": np.float64(0.5),
                    "grid": np.array([1, 2, 3]),
                },
            )
        )
        document = workflow_to_dict(workflow)
        # canonical JSON form: plain scalars and lists
        task = document["tasks"][0]
        assert task["inputs"] == [3]
        assert task["metadata"] == {"cost": 42, "ratio": 0.5, "grid": [1, 2, 3]}
        json.dumps(document)  # previously raised TypeError on np.int64
        assert workflow_to_dict(workflow_from_dict(document)) == document

    def test_single_element_array_stays_a_list(self):
        workflow = Workflow("np1")
        workflow.add_task(Task("a", "s", inputs=["x"], metadata={"grid": np.array([7])}))
        assert workflow_to_dict(workflow)["tasks"][0]["metadata"]["grid"] == [7]

    def test_tuple_metadata_canonicalised_and_stable(self):
        workflow = Workflow("t")
        workflow.add_task(Task("a", "s", inputs=["x"], metadata={"range": (60.0, 310.0)}))
        document = workflow_to_dict(workflow)
        assert document["tasks"][0]["metadata"]["range"] == [60.0, 310.0]
        assert workflow_to_dict(workflow_from_dict(document)) == document

    def test_unserialisable_metadata_raises_a_named_error(self):
        workflow = Workflow("bad")
        workflow.add_task(Task("a", "s", inputs=["x"], metadata={"fn": object()}))
        with pytest.raises(JSONFormatError, match="task 'a' metadata"):
            workflow_to_dict(workflow)


# ------------------------------------------------------------------- CLI
class TestScenarioCLI:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ALL_SCENARIOS:
            assert name in output

    def test_scenarios_names(self, capsys):
        assert main(["scenarios", "--names"]) == 0
        assert capsys.readouterr().out.split() == list(ALL_SCENARIOS)

    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(ALL_SCENARIOS)
        assert all("cost_profile" in entry and "parameters" in entry for entry in payload)

    def test_scenarios_describe(self, capsys):
        assert main(["scenarios", "inspiral"]) == 0
        output = capsys.readouterr().out
        assert "structure" in output and "cost profile" in output

    def test_scenarios_describe_unknown(self, capsys):
        assert main(["scenarios", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_scenario(self, capsys):
        assert main(["run", "--scenario", "sipht:size=20,seed=2", "--nodes", "5"]) == 0
        assert "succeeded          : True" in capsys.readouterr().out

    def test_run_scenario_json_output(self, capsys):
        assert main(["run", "--scenario", "longchain:size=10", "--nodes", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["succeeded"] is True and payload["timed_out"] is False

    def test_validate_scenario(self, capsys):
        assert main(["validate", "--scenario", "mapreduce:size=20"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_requires_exactly_one_source(self, capsys):
        assert main(["run"]) == 2
        assert "workflow source" in capsys.readouterr().err
        assert main(["run", "wf.json", "--scenario", "sipht"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_sweep_scenario_source(self, capsys):
        assert main([
            "sweep", "--scenario", "forkjoin", "--param", "size=20,30", "--nodes", "5",
        ]) == 0
        assert "2 cells" in capsys.readouterr().out

    def test_sweep_scenario_axis(self, capsys):
        assert main([
            "sweep", "--param", "scenario=longchain,sipht", "--nodes", "5", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["scenario"] for row in payload["rows"]} == {"longchain", "sipht"}
        assert all(row["timed_out"] is False for row in payload["rows"])

    def test_sweep_requires_a_source(self, capsys):
        assert main(["sweep", "--param", "nodes=5,10"]) == 2
        assert "workflow source" in capsys.readouterr().err
