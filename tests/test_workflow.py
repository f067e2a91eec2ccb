"""Unit tests for the workflow model: DAG, adaptation specs, generators, JSON."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.hoclflow import build_plan, encode_workflow

from repro.workflow import (
    AdaptationSpec,
    AdaptationValidationError,
    JSONFormatError,
    MONTAGE_PARALLEL_WIDTH,
    MONTAGE_TASK_COUNT,
    Task,
    Workflow,
    WorkflowValidationError,
    adaptive_diamond_workflow,
    diamond_workflow,
    duration_cdf,
    duration_classes,
    merge_workflow,
    montage_workflow,
    parallel_workflow,
    sequence_workflow,
    split_workflow,
    workflow_from_dict,
    workflow_from_json,
    workflow_to_dict,
    workflow_to_json,
)


class TestTask:
    def test_requires_name_and_service(self):
        with pytest.raises(WorkflowValidationError):
            Task("", "svc")
        with pytest.raises(WorkflowValidationError):
            Task("T1", "")

    def test_negative_duration_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Task("T1", "svc", duration=-1)

    def test_copy_is_independent(self):
        task = Task("T1", "svc", inputs=[1], metadata={"a": 1})
        clone = task.copy()
        clone.inputs.append(2)
        clone.metadata["b"] = 2
        assert task.inputs == [1]
        assert "b" not in task.metadata


class TestWorkflowStructure:
    def build(self):
        workflow = Workflow("w")
        for name in ("A", "B", "C", "D"):
            workflow.add_task(name, service="svc")
        workflow.add_dependency("A", "B")
        workflow.add_dependency("A", "C")
        workflow.add_dependency("B", "D")
        workflow.add_dependency("C", "D")
        return workflow

    def test_add_task_by_name(self):
        workflow = Workflow("w")
        task = workflow.add_task("T1", service="svc", duration=2.0)
        assert task.duration == 2.0

    def test_duplicate_task_rejected(self):
        workflow = Workflow("w")
        workflow.add_task("T1", service="svc")
        with pytest.raises(WorkflowValidationError):
            workflow.add_task("T1", service="svc")

    def test_dependency_unknown_task(self):
        workflow = Workflow("w")
        workflow.add_task("T1", service="svc")
        with pytest.raises(WorkflowValidationError):
            workflow.add_dependency("T1", "T2")

    def test_self_dependency_rejected(self):
        workflow = Workflow("w")
        workflow.add_task("T1", service="svc")
        with pytest.raises(WorkflowValidationError):
            workflow.add_dependency("T1", "T1")

    def test_dependency_idempotent(self):
        workflow = self.build()
        workflow.add_dependency("A", "B")
        assert workflow.dependencies().count(("A", "B")) == 1

    def test_predecessors_successors(self):
        workflow = self.build()
        assert set(workflow.successors("A")) == {"B", "C"}
        assert set(workflow.predecessors("D")) == {"B", "C"}

    def test_entry_and_exit(self):
        workflow = self.build()
        assert workflow.entry_tasks() == ["A"]
        assert workflow.exit_tasks() == ["D"]

    def test_topological_order(self):
        order = self.build().topological_order()
        assert order.index("A") < order.index("B") < order.index("D")

    def test_levels(self):
        levels = self.build().levels()
        assert [len(level) for level in levels] == [1, 2, 1]

    def test_cycle_detection(self):
        workflow = self.build()
        workflow.add_dependency("D", "A")  # force a cycle
        with pytest.raises(WorkflowValidationError) as raised:
            workflow.validate()
        assert str(raised.value) == f"workflow 'w' contains a cycle: {workflow.find_cycle()}"

    def test_empty_workflow_invalid(self):
        with pytest.raises(WorkflowValidationError):
            Workflow("w").validate()

    def test_chain_helper(self):
        workflow = Workflow("w")
        for name in ("A", "B", "C"):
            workflow.add_task(name, service="svc")
        workflow.chain("A", "B", "C")
        assert workflow.dependencies() == [("A", "B"), ("B", "C")]

    def test_remove_task_cleans_dependencies(self):
        workflow = self.build()
        workflow.remove_task("B")
        assert "B" not in workflow
        assert ("A", "B") not in workflow.dependencies()
        assert set(workflow.predecessors("D")) == {"C"}

    def test_critical_path_and_total_work(self):
        workflow = Workflow("w")
        workflow.add_task("A", service="svc", duration=1.0)
        workflow.add_task("B", service="svc", duration=2.0)
        workflow.add_task("C", service="svc", duration=4.0)
        workflow.add_dependency("A", "B")
        workflow.add_dependency("A", "C")
        assert workflow.critical_path_length() == 5.0
        assert workflow.total_work() == 7.0

    def test_subgraph(self):
        sub = self.build().subgraph(["A", "B"])
        assert set(sub.task_names()) == {"A", "B"}
        assert sub.dependencies() == [("A", "B")]

    def test_copy_preserves_everything(self):
        workflow = adaptive_diamond_workflow(2, 2)
        clone = workflow.copy()
        assert set(clone.task_names()) == set(workflow.task_names())
        assert len(clone.adaptations) == 1
        clone.remove_task("merge")
        assert "merge" in workflow

    def test_unknown_task_lookup(self):
        with pytest.raises(WorkflowValidationError):
            self.build().task("Z")


class TestAdaptationSpecValidation:
    def base_workflow(self):
        workflow = Workflow("w")
        for name in ("A", "B", "C", "D"):
            workflow.add_task(name, service="svc")
        workflow.chain("A", "B", "C", "D")
        return workflow

    def replacement(self, names=("R1",)):
        replacement = Workflow("r")
        previous = None
        for name in names:
            replacement.add_task(name, service="svc")
            if previous:
                replacement.add_dependency(previous, name)
            previous = name
        return replacement

    def test_valid_spec(self):
        workflow = self.base_workflow()
        spec = AdaptationSpec("a", ["B"], self.replacement(), entry_sources={"R1": ["A"]})
        spec.validate(workflow)
        assert spec.destination(workflow) == "C"
        assert spec.region_sources(workflow) == ["A"]

    def test_empty_region_rejected(self):
        with pytest.raises(AdaptationValidationError):
            AdaptationSpec("a", [], self.replacement()).validate(self.base_workflow())

    def test_unknown_replaced_task(self):
        with pytest.raises(AdaptationValidationError):
            AdaptationSpec("a", ["Z"], self.replacement()).validate(self.base_workflow())

    def test_name_collision_rejected(self):
        workflow = self.base_workflow()
        replacement = self.replacement(names=("A",))  # collides
        with pytest.raises(AdaptationValidationError):
            AdaptationSpec("a", ["B"], replacement, entry_sources={"A": ["A"]}).validate(workflow)

    def test_multiple_destinations_rejected(self):
        # Fig. 9(c): a region with several outside successors is invalid
        workflow = Workflow("w")
        for name in ("A", "B", "C", "D"):
            workflow.add_task(name, service="svc")
        workflow.add_dependency("A", "B")
        workflow.add_dependency("B", "C")
        workflow.add_dependency("B", "D")
        spec = AdaptationSpec("a", ["B"], self.replacement(), entry_sources={"R1": ["A"]})
        with pytest.raises(AdaptationValidationError):
            spec.validate(workflow)

    def test_entry_source_not_a_region_source(self):
        workflow = self.base_workflow()
        spec = AdaptationSpec("a", ["B"], self.replacement(), entry_sources={"R1": ["D"]})
        with pytest.raises(AdaptationValidationError):
            spec.validate(workflow)

    def test_entry_without_sources_or_inputs_rejected(self):
        workflow = self.base_workflow()
        spec = AdaptationSpec("a", ["B"], self.replacement())
        with pytest.raises(AdaptationValidationError):
            spec.validate(workflow)

    def test_trigger_outside_region_rejected(self):
        workflow = self.base_workflow()
        spec = AdaptationSpec(
            "a", ["B"], self.replacement(), entry_sources={"R1": ["A"]}, trigger_on=["C"]
        )
        with pytest.raises(AdaptationValidationError):
            spec.validate(workflow)

    def test_overlapping_adaptations_rejected(self):
        workflow = self.base_workflow()
        first = AdaptationSpec("a1", ["B"], self.replacement(("R1",)), entry_sources={"R1": ["A"]})
        second = AdaptationSpec("a2", ["B"], self.replacement(("R2",)), entry_sources={"R2": ["A"]})
        workflow.add_adaptation(first)
        with pytest.raises(WorkflowValidationError):
            workflow.add_adaptation(second)

    def test_disjoint_adaptations_accepted(self):
        workflow = Workflow("w")
        for name in ("A", "B", "C", "D", "E"):
            workflow.add_task(name, service="svc")
        workflow.chain("A", "B", "C", "D", "E")
        workflow.add_adaptation(
            AdaptationSpec("a1", ["B"], self.replacement(("R1",)), entry_sources={"R1": ["A"]})
        )
        workflow.add_adaptation(
            AdaptationSpec("a2", ["D"], self.replacement(("R2",)), entry_sources={"R2": ["C"]})
        )
        assert len(workflow.adaptations) == 2

    def test_copy(self):
        spec = AdaptationSpec("a", ["B"], self.replacement(), entry_sources={"R1": ["A"]})
        clone = spec.copy()
        clone.replaced.append("X")
        assert spec.replaced == ["B"]



@st.composite
def repeated_edge_dags(draw):
    """Task names and the forward edges (so a DAG) to insert, in order; a prefix is inserted twice."""
    size = draw(st.integers(2, 9))
    names = [f"N{index}" for index in range(size)]
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(lambda edge: edge[0] < edge[1])
    inserted = [(names[i], names[j]) for i, j in draw(st.lists(pair, max_size=3 * size))]
    return names, inserted + inserted[: draw(st.integers(0, len(inserted)))]


def _reference_levels(names, successors, predecessors):
    """Kahn by generations over plain adjacency lists, entry tasks in insertion order."""
    pending = {name: len(predecessors[name]) for name in names}
    level, levels = [name for name in names if not pending[name]], []
    while level:
        levels.append(level)
        released = []
        for name in level:
            for successor in successors[name]:
                pending[successor] -= 1
                if not pending[successor]:
                    released.append(successor)
        level = released
    return levels


class TestAdjacency:
    """The ordered adjacency lists hold first-insertion order however often an edge is added."""

    @staticmethod
    def built(names, inserted):
        workflow = Workflow("w", [Task(name, "svc") for name in names])
        for source, destination in inserted:
            workflow.add_dependency(source, destination)
        return workflow

    @settings(max_examples=60, deadline=None)
    @given(repeated_edge_dags(), st.data())
    def test_lists_dedup_in_first_insertion_order(self, dag, data):
        names, inserted = dag
        workflow = self.built(names, inserted)
        edges = list(dict.fromkeys(inserted))
        successors = {name: [d for s, d in edges if s == name] for name in names}
        predecessors = {name: [s for s, d in edges if d == name] for name in names}
        assert {name: workflow.successors(name) for name in names} == successors
        assert {name: workflow.predecessors(name) for name in names} == predecessors
        assert workflow.dependencies() == [(name, d) for name in names for d in successors[name]]
        assert workflow.levels() == _reference_levels(names, successors, predecessors)

        removed = data.draw(st.sampled_from(names))
        workflow.remove_task(removed)
        kept = [edge for edge in edges if removed not in edge]
        assert workflow.dependencies() == [(s, d) for name in names for s, d in kept if s == name]
        for name in workflow.task_names():
            assert workflow.predecessors(name) == [s for s, d in kept if d == name]
            assert all(neighbour in workflow for neighbour in workflow.successors(name))

    @settings(max_examples=60, deadline=None)
    @given(repeated_edge_dags(), st.data())
    def test_validate_agrees_with_find_cycle(self, dag, data):
        names, inserted = dag
        workflow = self.built(names, inserted)
        back_edges = data.draw(st.lists(st.sampled_from(inserted), max_size=2)) if inserted else []
        for source, destination in back_edges:
            workflow.add_dependency(destination, source)  # closes a cycle
        cycle = workflow.find_cycle()
        if cycle is None:
            workflow.validate()
        else:
            with pytest.raises(WorkflowValidationError, match=re.escape(f"contains a cycle: {cycle}")):
                workflow.validate()


class TestValidateOnce:
    """Each adaptation specification is validated once per load and encode."""

    @staticmethod
    def counting(monkeypatch) -> dict[str, int]:
        counts: dict[str, int] = {}
        validate = AdaptationSpec.validate

        def counted(spec, workflow):
            counts[spec.name] = counts.get(spec.name, 0) + 1
            validate(spec, workflow)

        monkeypatch.setattr(AdaptationSpec, "validate", counted)
        return counts

    def test_json_load_and_encode_validate_each_spec_once(self, monkeypatch):
        document = workflow_to_dict(adaptive_diamond_workflow(4, 4))
        counts = self.counting(monkeypatch)
        workflow = workflow_from_json(document)
        encode_workflow(workflow)
        assert counts == {spec.name: 1 for spec in workflow.adaptations}

    def test_explicit_validate_rechecks_a_spec_edited_in_place(self, monkeypatch):
        workflow = workflow_from_json(workflow_to_dict(adaptive_diamond_workflow(4, 4)))
        counts = self.counting(monkeypatch)
        workflow.ensure_valid()
        assert counts == {}
        workflow.adaptations[0].trigger_on = ["split"]
        with pytest.raises(AdaptationValidationError, match="trigger task 'split' is not part of the replaced region"):
            workflow.validate()
        assert list(counts.values()) == [1]

    def test_build_plan_validates_a_workflow_never_validated(self, monkeypatch):
        workflow = adaptive_diamond_workflow(4, 4)
        counts = self.counting(monkeypatch)
        spec = workflow.adaptations[0]
        build_plan(workflow, spec)
        build_plan(workflow, spec)
        assert counts == {spec.name: 1}
        workflow.add_task("extra", service="svc")
        workflow.add_dependency(spec.replaced[0], "extra")  # a second destination outside the region
        with pytest.raises(AdaptationValidationError, match="exactly one destination"):
            build_plan(workflow, spec)

class TestGenerators:
    def test_sequence(self):
        workflow = sequence_workflow(5)
        workflow.validate()
        assert len(workflow) == 5
        assert len(workflow.levels()) == 5

    def test_sequence_requires_positive_length(self):
        with pytest.raises(WorkflowValidationError):
            sequence_workflow(0)

    def test_parallel(self):
        workflow = parallel_workflow(4)
        assert len(workflow) == 6
        assert [len(level) for level in workflow.levels()] == [1, 4, 1]

    def test_split_and_merge(self):
        assert len(split_workflow(3)) == 4
        assert len(merge_workflow(3)) == 4

    def test_diamond_simple_counts(self):
        workflow = diamond_workflow(4, 3, "simple")
        workflow.validate()
        assert len(workflow) == 4 * 3 + 2
        # simple: 4 split edges + 4*2 chain edges + 4 merge edges
        assert len(workflow.dependencies()) == 4 + 8 + 4

    def test_diamond_full_counts(self):
        workflow = diamond_workflow(4, 3, "full")
        assert len(workflow.dependencies()) == 4 + 4 * 4 * 2 + 4

    def test_diamond_rejects_unknown_connectivity(self):
        with pytest.raises(WorkflowValidationError):
            diamond_workflow(2, 2, "star")

    def test_adaptive_diamond_error_task_and_spec(self):
        workflow = adaptive_diamond_workflow(3, 2, "simple", "full")
        workflow.validate()
        assert workflow.task("T_2_3").metadata.get("force_error")
        spec = workflow.adaptations[0]
        assert len(spec.replaced) == 6
        assert spec.destination(workflow) == "merge"
        assert set(spec.entry_sources) == {"R_1_1", "R_1_2", "R_1_3"}

    def test_diamond_1x1(self):
        workflow = diamond_workflow(1, 1)
        assert len(workflow) == 3


class TestMontage:
    def test_counts(self):
        workflow = montage_workflow()
        assert len(workflow) == MONTAGE_TASK_COUNT == 118
        assert max(len(level) for level in workflow.levels()) == MONTAGE_PARALLEL_WIDTH == 108

    def test_duration_classes(self):
        classes = duration_classes(montage_workflow())
        assert sum(classes.values()) == 118
        assert classes["60<T"] >= 100

    def test_durations_deterministic_per_seed(self):
        first = [task.duration for task in montage_workflow(seed=7)]
        second = [task.duration for task in montage_workflow(seed=7)]
        assert first == second
        other = [task.duration for task in montage_workflow(seed=8)]
        assert first != other

    def test_critical_path_close_to_baseline(self):
        assert 450 <= montage_workflow().critical_path_length() <= 520

    def test_duration_scale(self):
        scaled = montage_workflow(duration_scale=0.01)
        assert scaled.critical_path_length() < 10

    def test_cdf_monotone(self):
        durations, fractions = duration_cdf(montage_workflow())
        assert list(durations) == sorted(durations)
        assert fractions[-1] == 1.0

    def test_all_tasks_idempotent(self):
        assert all(task.metadata.get("idempotent") for task in montage_workflow())


class TestJSONFormat:
    def test_roundtrip_plain(self):
        workflow = diamond_workflow(2, 2)
        clone = workflow_from_json(workflow_to_json(workflow))
        assert set(clone.task_names()) == set(workflow.task_names())
        assert sorted(clone.dependencies()) == sorted(workflow.dependencies())

    def test_roundtrip_adaptive(self):
        workflow = adaptive_diamond_workflow(2, 2)
        clone = workflow_from_json(workflow_to_json(workflow))
        assert len(clone.adaptations) == 1
        assert clone.adaptations[0].replaced == workflow.adaptations[0].replaced

    def test_from_dict(self):
        document = workflow_to_dict(sequence_workflow(3))
        clone = workflow_from_dict(document)
        assert len(clone) == 3

    def test_missing_tasks_key(self):
        with pytest.raises(JSONFormatError):
            workflow_from_dict({"name": "x"})

    def test_missing_service(self):
        with pytest.raises(JSONFormatError):
            workflow_from_dict({"name": "x", "tasks": [{"name": "T1"}]})

    def test_invalid_json_text(self):
        with pytest.raises(JSONFormatError):
            workflow_from_json("{not json")

    def test_missing_file(self):
        with pytest.raises(JSONFormatError):
            workflow_from_json("does-not-exist.json")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "wf.json"
        workflow_to_json(diamond_workflow(2, 1), path)
        clone = workflow_from_json(str(path))
        assert len(clone) == 4

    def test_durations_and_metadata_preserved(self):
        workflow = montage_workflow()
        clone = workflow_from_json(workflow_to_json(workflow))
        assert clone.task("mProject_1").duration == workflow.task("mProject_1").duration
        assert clone.task("mAdd").metadata["stage"] == "merge"

    def test_json_is_valid_json(self):
        text = workflow_to_json(sequence_workflow(2))
        assert json.loads(text)["tasks"]


# --------------------------------------------------------------------------
# Hostile documents: the JSON front door runs a document as written or not
# at all — through `workflow_from_json` and through `ginflow run`
# --------------------------------------------------------------------------


def _document(task_extra=None, document_extra=None, adaptation_extra=None):
    """A valid two-task adaptive document, with the given keys forced in."""
    document = {
        "name": "w",
        "tasks": [
            {"name": "a", "service": "s", "inputs": ["in"]},
            {"name": "b", "service": "s", "depends_on": ["a"], **(task_extra or {})},
            {"name": "c", "service": "s", "depends_on": ["b"]},
        ],
        "adaptations": [
            {
                "name": "swap-b",
                "replaced": ["b"],
                "entry_sources": {"b2": ["a"]},
                "replacement": {"name": "alt", "tasks": [{"name": "b2", "service": "s2"}]},
                **(adaptation_extra or {}),
            }
        ],
        **(document_extra or {}),
    }
    return json.dumps(document)


#: fixture -> (document text, what the one error line must name)
HOSTILE_DOCUMENTS = {
    "UNKNOWN_DOCUMENT_KEY": (_document(document_extra={"task": []}), r"workflow document 'w': unknown key 'task'; known keys: name, tasks"),
    "UNKNOWN_TASK_KEY": (_document({"sources": ["a"]}), r"workflow 'w' task 'b': unknown key 'sources'; known keys: .*depends_on"),
    "UNKNOWN_ADAPTATION_KEY": (_document(adaptation_extra={"replace": ["b"]}), r"workflow 'w' adaptation 'swap-b': unknown key 'replace'; known keys: .*replaced"),
    "STRING_FOR_LIST": (_document({"depends_on": "a"}), r"workflow 'w' task 'b': 'depends_on' must be a list"),
    "NUMBER_FOR_LIST": (_document({"inputs": 5}), r"task 'b': 'inputs' must be a list, got 5"),
    "LIST_FOR_OBJECT": (_document({"metadata": [1]}), r"task 'b': 'metadata' must be an object"),
    "STRING_FOR_NUMBER": (_document({"duration": "abc"}), r"task 'b': 'duration' must be a number, got 'abc'"),
    "BOOLEAN_FOR_NUMBER": (_document({"duration": True}), r"task 'b': 'duration' must be a number"),
    "NUMBER_FOR_NAME": (_document({"name": 7}), r"workflow 'w' task: 'name' must be a string"),
    "OBJECT_FOR_TASK_LIST": (_document(document_extra={"tasks": {"a": 1}}), r"workflow document 'w': 'tasks' must be a list"),
    "NUMBER_FOR_ADAPTATION": (_document(document_extra={"adaptations": [5]}), r"workflow 'w' adaptation: expected an object, got 5"),
    "STRING_FOR_ENTRY_SOURCES": (
        _document(adaptation_extra={"entry_sources": {"b2": "a"}}),
        r"adaptation 'swap-b': 'entry_sources' of 'b2' must be a list",
    ),
    "NUMBER_FOR_REPLACEMENT": (
        _document(adaptation_extra={"replacement": 3}),
        r"adaptation 'swap-b': 'replacement' must be an object",
    ),
    "STRING_FOR_FLAG": (
        _document(adaptation_extra={"clear_destination_inputs": "yes"}),
        r"adaptation 'swap-b': 'clear_destination_inputs' must be true or false",
    ),
    "LIST_FOR_DOCUMENT": ("[1, 2]", r"workflow document: expected an object"),
    "TRUNCATED": (_document()[:-3], r"invalid JSON workflow document"),
}


class TestHostileJSON:
    def test_the_base_document_is_valid(self, tmp_path, capsys):
        workflow = workflow_from_json(_document())
        assert workflow.dependencies() == [("a", "b"), ("b", "c")] and len(workflow.adaptations) == 1
        path = tmp_path / "good.json"
        path.write_text(_document(), encoding="utf-8")
        assert main(["run", str(path), "--nodes", "5"]) == 0
        assert capsys.readouterr().err == ""

    def test_what_the_writer_emits_loads_unchanged(self):
        document = workflow_to_dict(adaptive_diamond_workflow(3, 3, "full", "simple"))
        assert workflow_to_dict(workflow_from_dict(document)) == document

    @pytest.mark.parametrize("fixture", HOSTILE_DOCUMENTS)
    def test_rejected_by_the_loader_naming_the_field(self, fixture):
        text, named = HOSTILE_DOCUMENTS[fixture]
        with pytest.raises(JSONFormatError, match=named):
            workflow_from_json(text)

    @pytest.mark.parametrize("fixture", HOSTILE_DOCUMENTS)
    def test_rejected_by_ginflow_run_with_one_error_line(self, fixture, tmp_path, capsys):
        text, named = HOSTILE_DOCUMENTS[fixture]
        path = tmp_path / f"{fixture.lower()}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path), "--nodes", "5"]) != 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert re.search(named, lines[0]) and "Traceback" not in captured.err


#: scenario spec -> what the one error line must name
HOSTILE_SEEDS = {
    "montage:size=30,seed=-1": r"scenario 'montage': seed must be a non-negative integer, got -1$",
    "montage:size=30,seed=1.5": r"scenario 'montage': seed must be a non-negative integer, got 1\.5$",
}


class TestHostileSeeds:
    @pytest.mark.parametrize("spec", HOSTILE_SEEDS)
    def test_rejected_by_ginflow_run_with_one_error_line(self, spec, capsys):
        assert main(["run", "--scenario", spec]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert re.search(HOSTILE_SEEDS[spec], lines[0]) and captured.out == ""

    def test_a_negative_root_seed_still_runs(self, capsys):
        # stream seeds are derived from the root seed and masked to 32 bits
        assert main(["run", "--scenario", "montage:size=30,seed=2", "--seed", "-3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == -3
