"""Unit tests for the HOCLflow layer: fields, generic rules, adaptation, translator."""

import pytest

from repro.hocl import (
    IntAtom,
    Multiset,
    ReductionEngine,
    Subsolution,
    Symbol,
    TupleAtom,
    default_registry,
)
from repro.hoclflow import (
    build_parameters,
    build_plan,
    dst_field,
    encode_workflow,
    get_dst,
    get_in_atoms,
    get_par_values,
    get_res_atoms,
    get_service,
    get_src,
    has_error,
    has_result,
    in_field,
    is_tagged_input,
    keywords as kw,
    make_add_dst,
    make_gw_call,
    make_gw_pass,
    make_gw_setup,
    make_mv_src,
    make_trigger_adapt,
    register_workflow_externals,
    res_field,
    src_field,
    srv_field,
    tagged_input,
    tagged_input_source,
    tagged_input_value,
    task_solution,
    task_tuple,
)
from repro.runtime import GinFlow
from repro.services import ServiceRegistry
from repro.workflow import AdaptationSpec, Task, Workflow, adaptive_diamond_workflow, diamond_workflow


class TestFields:
    def test_src_field_structure(self):
        field = src_field(["T1", "T2"])
        assert field.head_symbol() == kw.SRC
        assert Symbol("T1") in field.elements[1].solution

    def test_task_solution_has_all_fields(self):
        solution = task_solution(["T1"], ["T3"], "svc", inputs=["x"])
        assert get_src(solution) == ["T1"]
        assert get_dst(solution) == ["T3"]
        assert get_service(solution) == "svc"
        assert len(get_in_atoms(solution)) == 1
        assert get_res_atoms(solution) == []

    def test_task_tuple_wraps_solution(self):
        atom = task_tuple("T1", [], [], "svc")
        assert atom.head_symbol() == "T1"
        assert isinstance(atom.elements[1], Subsolution)

    def test_tagged_input_roundtrip(self):
        atom = tagged_input("T1", 42)
        assert is_tagged_input(atom)
        assert tagged_input_source(atom) == "T1"
        assert tagged_input_value(atom) == IntAtom(42)

    def test_reserved_keyword_tuple_is_not_tagged_input(self):
        assert not is_tagged_input(src_field([]))

    def test_build_parameters_orders_initial_then_tagged(self):
        atoms = [tagged_input("T2", "b"), IntAtom(1), tagged_input("T1", "a")]
        assert build_parameters(atoms) == [1, "a", "b"]

    def test_has_error_and_result(self):
        solution = task_solution([], [], "svc")
        assert not has_result(solution) and not has_error(solution)
        solution.replace_tuple(kw.RES, res_field([kw.ERROR_SYM]))
        assert has_error(solution) and not has_result(solution)
        solution.replace_tuple(kw.RES, res_field(["value"]))
        assert has_result(solution)

    def test_get_par_values_absent(self):
        assert get_par_values(task_solution([], [], "svc")) is None

    def test_srv_field_service_name(self):
        solution = Multiset([srv_field("montage")])
        assert get_service(solution) == "montage"


class TestGenericRules:
    def _externals(self, results=None):
        registry = default_registry()
        results = results or {}

        def invoke(task, service, params):
            results.setdefault("calls", []).append((task, service, tuple(params)))
            if results.get("fail"):
                raise RuntimeError("boom")
            return f"{task}-out"

        register_workflow_externals(registry, invoke)
        return registry, results

    def test_gw_setup_builds_parameters_when_src_empty(self):
        solution = task_solution([], [], "svc", inputs=["x", "y"])
        solution.add(make_gw_setup())
        registry, _ = self._externals()
        ReductionEngine(externals=registry).reduce(solution)
        assert get_par_values(solution) == ["x", "y"]
        assert solution.find_tuple(kw.IN) is None  # IN consumed

    def test_gw_setup_waits_for_sources(self):
        solution = task_solution(["T1"], [], "svc", inputs=["x"])
        solution.add(make_gw_setup())
        registry, _ = self._externals()
        ReductionEngine(externals=registry).reduce(solution)
        assert get_par_values(solution) is None

    def test_gw_call_invokes_service_and_stores_result(self):
        solution = task_solution([], [], "svc", inputs=["x"])
        solution.add_all([make_gw_setup(), make_gw_call("T7")])
        registry, calls = self._externals()
        ReductionEngine(externals=registry).reduce(solution)
        assert has_result(solution)
        assert calls["calls"] == [("T7", "svc", ("x",))]

    def test_gw_call_failure_yields_error_marker(self):
        solution = task_solution([], [], "svc", inputs=["x"])
        solution.add_all([make_gw_setup(), make_gw_call("T7")])
        registry, _ = self._externals({"fail": True})
        ReductionEngine(externals=registry).reduce(solution)
        assert has_error(solution)

    def test_gw_pass_moves_result_and_dependencies(self):
        source = task_tuple("T1", [], ["T2"], "svc")
        destination = task_tuple("T2", ["T1"], [], "svc")
        source.elements[1].solution.replace_tuple(kw.RES, res_field(["r1"]))
        solution = Multiset([source, destination, make_gw_pass()])
        registry, _ = self._externals()
        ReductionEngine(externals=registry).reduce(solution)
        dest_solution = solution.find_tuple("T2").elements[1].solution
        assert get_src(dest_solution) == []
        tagged = [a for a in get_in_atoms(dest_solution) if is_tagged_input(a)]
        assert tagged and tagged_input_source(tagged[0]) == "T1"
        source_solution = solution.find_tuple("T1").elements[1].solution
        assert get_dst(source_solution) == []

    def test_gw_pass_does_not_move_error(self):
        source = task_tuple("T1", [], ["T2"], "svc")
        destination = task_tuple("T2", ["T1"], [], "svc")
        source.elements[1].solution.replace_tuple(kw.RES, res_field([kw.ERROR_SYM]))
        solution = Multiset([source, destination, make_gw_pass()])
        ReductionEngine(externals=default_registry()).reduce(solution)
        dest_solution = solution.find_tuple("T2").elements[1].solution
        assert get_src(dest_solution) == ["T1"]

    def test_gw_pass_waits_for_result(self):
        source = task_tuple("T1", [], ["T2"], "svc")
        destination = task_tuple("T2", ["T1"], [], "svc")
        solution = Multiset([source, destination, make_gw_pass()])
        ReductionEngine(externals=default_registry()).reduce(solution)
        assert get_src(solution.find_tuple("T2").elements[1].solution) == ["T1"]


def simple_adaptive_workflow():
    """The Fig. 5/6 scenario: T2 may fail, replaced by T2p."""
    workflow = Workflow("fig5")
    workflow.add_task(Task("T1", "s1", inputs=["input"]))
    workflow.add_task(Task("T2", "s2", metadata={"force_error": True}))
    workflow.add_task(Task("T3", "s3"))
    workflow.add_task(Task("T4", "s4"))
    workflow.add_dependency("T1", "T2")
    workflow.add_dependency("T1", "T3")
    workflow.add_dependency("T2", "T4")
    workflow.add_dependency("T3", "T4")
    replacement = Workflow("alt")
    replacement.add_task(Task("T2p", "s2alt"))
    spec = AdaptationSpec(
        name="replace-T2",
        replaced=["T2"],
        replacement=replacement,
        entry_sources={"T2p": ["T1"]},
    )
    workflow.add_adaptation(spec)
    return workflow, spec


class TestAdaptationPlan:
    def test_plan_resolution(self):
        workflow, spec = simple_adaptive_workflow()
        plan = build_plan(workflow, spec)
        assert plan.sources == ["T1"]
        assert plan.destination == "T4"
        assert plan.entry_tasks == ["T2p"]
        assert plan.exit_tasks == ["T2p"]
        assert plan.added_destinations == {"T1": ["T2p"]}

    def test_affected_tasks_and_markers(self):
        workflow, spec = simple_adaptive_workflow()
        plan = build_plan(workflow, spec)
        assert set(plan.affected_tasks()) == {"T1", "T4", "T2p"}
        assert plan.adapt_marker_counts() == {"T1": 1, "T4": 1, "T2p": 1}

    def test_rule_names(self):
        workflow, spec = simple_adaptive_workflow()
        plan = build_plan(workflow, spec)
        assert make_trigger_adapt(plan, "T2").name.startswith("trigger_adapt:")
        assert make_add_dst(plan, "T1").name.startswith("add_dst:")
        assert make_mv_src(plan).name.startswith("mv_src:")


class TestClearDestinationInputs:
    """``mv_src`` with and without the paper's exact ``IN : <>``: the
    destination of an adaptive diamond also fed by ``split`` gathers its
    inputs, so its result shows what ``IN`` held once the adaptation fired."""

    @pytest.mark.parametrize("mode", ["simulated", "centralized"])
    @pytest.mark.parametrize("clear", [False, True])
    def test_destination_inputs_after_adaptation(self, mode, clear):
        workflow = adaptive_diamond_workflow(2, 2, "full", "simple")
        workflow.add_dependency("split", "merge")
        workflow.task("merge").service = "gather"
        workflow.adaptations[0].clear_destination_inputs = clear
        services = ServiceRegistry()
        services.register_function("gather", lambda *inputs: "+".join(sorted(map(str, inputs))))
        report = GinFlow().run(workflow, mode=mode, registry=services)
        assert report.succeeded
        # T_2_1 is replaced: its input is dropped either way; split's only without the flag
        kept = [] if clear else ["split-out"]
        assert report.results["merge"] == "+".join(["R_2_1-out", "R_2_2-out", *kept])


class TestTranslator:
    def test_encoding_covers_all_tasks(self):
        workflow, _spec = simple_adaptive_workflow()
        encoding = encode_workflow(workflow)
        assert set(encoding.task_names()) == {"T1", "T2", "T3", "T4", "T2p"}
        assert encoding.replacement_tasks() == ["T2p"]
        assert encoding.exit_tasks() == ["T4"]

    def test_replacement_entry_has_trigger_placeholder(self):
        workflow, _spec = simple_adaptive_workflow()
        encoding = encode_workflow(workflow)
        entry = encoding.tasks["T2p"]
        assert entry.has_trigger_placeholder
        solution = entry.initial_solution()
        assert kw.TRIGGER in get_src(solution)

    def test_local_rules_assignment(self):
        workflow, _spec = simple_adaptive_workflow()
        encoding = encode_workflow(workflow)
        t1_rules = {rule.name.split(":")[0] for rule in encoding.tasks["T1"].local_rules}
        assert "add_dst" in t1_rules
        t4_rules = {rule.name.split(":")[0] for rule in encoding.tasks["T4"].local_rules}
        assert "mv_src" in t4_rules
        t2p_rules = {rule.name.split(":")[0] for rule in encoding.tasks["T2p"].local_rules}
        assert "activate" in t2p_rules

    def test_trigger_plan_attached_to_trigger_task(self):
        workflow, _spec = simple_adaptive_workflow()
        encoding = encode_workflow(workflow)
        assert len(encoding.tasks["T2"].trigger_plans) == 1
        assert not encoding.tasks["T3"].trigger_plans

    def test_to_multiset_contains_global_rules_and_task_tuples(self):
        workflow, _spec = simple_adaptive_workflow()
        encoding = encode_workflow(workflow)
        solution = encoding.to_multiset()
        rule_names = {rule.name.split(":")[0] for rule in solution.rules()}
        assert "gw_pass" in rule_names and "trigger_adapt" in rule_names
        task_tuples = [
            atom for atom in solution.atoms()
            if isinstance(atom, TupleAtom) and isinstance(atom.elements[0], Symbol)
            and not isinstance(atom, type(None)) and atom.head_symbol() not in kw.RESERVED_KEYWORDS
            and isinstance(atom.elements[-1], Subsolution)
        ]
        assert len(task_tuples) == 5

    def test_encoding_of_plain_diamond_has_no_adaptation_rules(self):
        encoding = encode_workflow(diamond_workflow(2, 2))
        assert len(encoding.plans) == 0
        assert len(encoding.global_rules) == 1  # just gw_pass

    def test_adaptive_diamond_encoding_counts(self):
        workflow = adaptive_diamond_workflow(3, 2)
        encoding = encode_workflow(workflow)
        # 3*2 body + split + merge + 3*2 replacement
        assert len(encoding.task_names()) == 14
        assert len(encoding.plans) == 1
