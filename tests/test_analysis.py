"""Tests for repro.analysis: the static analyzer behind ``ginflow lint``.

Each built-in check gets a deliberately-broken fixture that must produce the
expected finding (check id, severity, subject, fix hint), and the shipped
catalog — every registered scenario plus the built-in generic/local rule
sets — must lint clean at ``--fail-on error``.
"""

import json

import pytest

from repro.analysis import (
    AnalysisReport,
    Finding,
    Severity,
    analyze_all_scenarios,
    analyze_document,
    analyze_encoding,
    analyze_rules,
    analyze_scenario,
    analyze_workflow,
    available_checks,
    register_check,
    registry,
)
from repro.cli import main
from repro.analysis.analyzer import _injected_keys
from repro.hocl import (
    Compare,
    Multiset,
    Omega,
    Ref,
    SolutionTemplate,
    Splice,
    Symbol,
    TuplePattern,
    TupleTemplate,
    Var,
    replace,
    replace_one,
    with_inject,
)
from repro.hoclflow import adaptation
from repro.hoclflow.adaptation import build_plan, make_mv_src
from repro.hoclflow.translator import encode_workflow
from repro.scenarios import available_scenarios, register_scenario
from repro.scenarios.registry import registry as scenario_registry
from repro.workflow import Task, Workflow, adaptive_diamond_workflow, diamond_workflow
from repro.workflow.json_format import workflow_to_json


def findings_for(report, check):
    return report.by_check(check)


# --------------------------------------------------------------- rule checks
class TestRuleChecks:
    def test_unbound_product_variable(self):
        rule = replace("bad_product", [Var("x")], [Ref("y")])
        report = analyze_rules([rule], solution=Multiset([1]))
        (finding,) = findings_for(report, "rule-unbound-product")
        assert finding.severity is Severity.ERROR
        assert finding.subject == "bad_product"
        assert "'y'" in finding.message
        assert "bind" in finding.fix_hint

    def test_a_given_name_binds_a_product_variable(self):
        rule = replace("context", [Var("x")], [Ref("task"), Ref("other"), Ref("x")], given={"other": 1})
        (finding,) = findings_for(analyze_rules([rule], solution=Multiset([1])), "rule-unbound-product")
        assert finding.severity is Severity.ERROR and "'task'" in finding.message and "'other'" not in finding.message
        sibling = rule.bind(task="T1")
        assert not findings_for(analyze_rules([sibling], solution=Multiset([1])), "rule-unbound-product")

    def test_unbound_condition_variable(self):
        rule = replace(
            "bad_condition",
            [Var("x")],
            [Ref("x")],
            condition=Compare(">", Ref("z"), 0),
        )
        report = analyze_rules([rule], solution=Multiset([1]))
        (finding,) = findings_for(report, "rule-unbound-condition")
        assert finding.severity is Severity.WARNING
        assert finding.subject == "bad_condition"
        assert "'z'" in finding.message

    def test_a_parsed_condition_reading_an_unbound_name(self):
        """The condition is data the summary reads: a parsed one too."""
        from repro.hocl import parse_program

        rule = parse_program("let r = replace x by x if z > 0 in <r>").rules["r"]
        (finding,) = findings_for(analyze_rules([rule], solution=Multiset([1])), "rule-unbound-condition")
        assert finding.subject == "r" and "condition reads 'z'" in finding.message

    def test_an_effect_reads_the_names_of_its_parameters(self):
        rule = replace("effect", [Var("x")], [Ref("x")], effect=lambda x, late: None)
        (finding,) = findings_for(analyze_rules([rule], solution=Multiset([1])), "rule-unbound-condition")
        assert "effect reads 'late'" in finding.message
        assert not findings_for(analyze_rules([rule.bind(late=1)], solution=Multiset([1])), "rule-unbound-condition")

    def test_dead_index_key(self):
        rule = replace("waits_forever", [Symbol("GHOST")], [])
        report = analyze_rules([rule], solution=Multiset([1, 2]))
        (finding,) = findings_for(report, "rule-dead-index-key")
        assert finding.severity is Severity.ERROR
        assert finding.subject == "waits_forever"
        assert "GHOST" in finding.message

    def test_index_key_live_via_initial_solution(self):
        rule = replace("fires", [Symbol("GO")], [])
        report = analyze_rules([rule], solution=Multiset([Symbol("GO")]))
        assert not findings_for(report, "rule-dead-index-key")

    @pytest.mark.parametrize(
        "producer",
        [
            replace_one("producer", [Var("x")], [Symbol("GO")]),
            replace_one("producer", [Var("x")], [Splice("new")]).bind(new=[Symbol("GO")]),
        ],
        ids=["literal", "given"],
    )
    def test_index_key_live_via_producing_rule(self, producer):
        consumer = replace("consumer", [Symbol("GO")], [])
        report = analyze_rules([producer, consumer], solution=Multiset([1]))
        assert not findings_for(report, "rule-dead-index-key")

    def test_a_key_made_one_level_down_does_not_make_it_live_here(self):
        """A producer of ``T : <GO>`` makes ``GO`` at depth 1, not at the top level."""
        producer = replace_one("producer", [Var("x")], [TupleTemplate(Symbol("T"), SolutionTemplate(Symbol("GO")))])
        consumer = replace("consumer", [Symbol("GO")], [])
        (finding,) = findings_for(analyze_rules([producer, consumer], solution=Multiset([1])), "rule-dead-index-key")
        assert finding.subject == "consumer" and "symbol:GO" in finding.message
        assert producer.summary.added(1, producer.given) == ({("symbol", "GO"), ("kind", "symbol")}, False)

    def test_a_given_splice_injects_its_atoms_into_a_nested_solution(self):
        body = TupleTemplate(Symbol("DST"), SolutionTemplate(Splice("new"), Splice("w")))
        rule = replace_one("adds", [TuplePattern(Symbol("DST"), rest=Omega("w"))], [body]).bind(new=[Symbol("R1")])
        keys, wildcard = _injected_keys([rule])
        assert ("symbol", "R1") in keys and not wildcard

    def test_index_key_live_via_injection(self):
        rule = replace("adaptation", [Symbol("ADAPT")], [])
        clean = analyze_rules(
            [rule], solution=Multiset([1]), injected_keys={("symbol", "ADAPT")}
        )
        assert not findings_for(clean, "rule-dead-index-key")
        dirty = analyze_rules([rule], solution=Multiset([1]))
        assert findings_for(dirty, "rule-dead-index-key")

    def test_duplicate_rule_name(self):
        first = replace("same", [Var("x")], [Ref("x")])
        second = replace("same", [Symbol("GO")], [])
        report = analyze_rules(
            [first, second], solution=Multiset([1, Symbol("GO")])
        )
        (finding,) = findings_for(report, "rule-duplicate-name")
        assert finding.severity is Severity.ERROR
        assert finding.subject == "same"
        assert "rename" in finding.fix_hint

    def test_shadowed_rule(self):
        greedy = replace("greedy", [Var("x")], [Ref("x")])
        starved = replace("starved", [Var("x")], [Ref("x")])
        report = analyze_rules([greedy, starved], solution=Multiset([1]))
        (finding,) = findings_for(report, "rule-shadowed")
        assert finding.severity is Severity.WARNING
        assert finding.subject == "starved"
        assert "'greedy'" in finding.message
        assert "priority" in finding.fix_hint

    def test_no_shadow_across_priorities_or_conditions(self):
        high = replace("high", [Var("x")], [Ref("x")], priority=1)
        guarded = replace("guarded", [Var("x")], [Ref("x")], condition=Compare("==", Ref("x"), Ref("x")))
        low = replace("low", [Var("x")], [Ref("x")])
        report = analyze_rules([high, guarded, low], solution=Multiset([1]))
        assert not findings_for(report, "rule-shadowed")

    def test_ref_of_omega_bound_variable(self):
        pattern = TuplePattern(Symbol("T"), rest=Omega("w"))
        rule = replace("bad_arity", [pattern], [Ref("w")])
        report = analyze_rules([rule], solution=Multiset([1]))
        findings = [
            f for f in findings_for(report, "rule-template-arity") if f.severity is Severity.ERROR
        ]
        (finding,) = findings
        assert finding.subject == "bad_arity"
        assert "Splice" in finding.fix_hint

    def test_splice_of_scalar_bound_variable(self):
        rule = replace("odd_splice", [Var("x")], [Splice("x")])
        report = analyze_rules([rule], solution=Multiset([1]))
        findings = findings_for(report, "rule-template-arity")
        (finding,) = findings
        assert finding.severity is Severity.WARNING
        assert "Ref" in finding.fix_hint


    def test_a_given_list_is_an_omega_binding(self):
        rule = replace("context", [Var("x")], [Ref("x")]).bind(new=["A", "B"], task="T")
        assert rule.summary.omega(rule.given) == {"new"}
        spliced = replace("spliced", [Var("x")], [Ref("x"), Splice("new"), Ref("task")]).bind(new=["A"], task="T")
        assert not findings_for(analyze_rules([spliced], solution=Multiset([1])), "rule-template-arity")
        referenced = replace("referenced", [Var("x")], [Ref("new")]).bind(new=["A"])
        (finding,) = findings_for(analyze_rules([referenced], solution=Multiset([1])), "rule-template-arity")
        assert finding.severity is Severity.ERROR and "Splice('new')" in finding.fix_hint

    def test_mv_src_bound_without_replaced_reads_an_unbound_name(self):
        workflow = adaptive_diamond_workflow(2, 2)
        plan = build_plan(workflow, workflow.adaptations[0])
        rule = make_mv_src(plan)
        assert not findings_for(analyze_rules([rule], solution=Multiset([1])), "rule-unbound-product")
        assert rule.summary.reads["splice"] == {"wsrc", "win", "replaced", "new"}
        sibling = adaptation._MV_SRC.bind(name="mv_src:no-replaced", new=["R_2_1"])
        (finding,) = findings_for(analyze_rules([sibling], solution=Multiset([1])), "rule-unbound-product")
        assert finding.subject == "mv_src:no-replaced" and "'replaced'" in finding.message

    def test_an_unconvertible_literal_product_may_be_anything(self):
        """``to_atom`` refuses it with an ``AtomError``: the scope can then produce any atom."""
        rule = replace("r", [Var("x")], [object()])
        assert rule.summary.added(0, rule.given) == (set(), True)


# ----------------------------------------------------------- workflow checks
class TestWorkflowChecks:
    def test_cycle(self):
        report = analyze_document(
            {
                "name": "cyclic",
                "tasks": [
                    {"name": "a", "service": "s", "depends_on": ["c"]},
                    {"name": "b", "service": "s", "depends_on": ["a"]},
                    {"name": "c", "service": "s", "depends_on": ["b"]},
                ],
            }
        )
        (finding,) = findings_for(report, "workflow-cycle")
        assert finding.severity is Severity.ERROR
        assert "->" in finding.message
        # a cyclic workflow also has no reachable exit task
        unreachable = findings_for(report, "workflow-unreachable")
        assert unreachable and all(f.severity is Severity.ERROR for f in unreachable)

    def test_orphan_task(self):
        report = analyze_document(
            {
                "name": "orphaned",
                "tasks": [
                    {"name": "a", "service": "s"},
                    {"name": "b", "service": "s", "depends_on": ["a"]},
                    {"name": "lone", "service": "s"},
                ],
            }
        )
        (finding,) = findings_for(report, "workflow-orphan")
        assert finding.severity is Severity.WARNING
        assert finding.subject == "lone"

    def test_duplicate_task_name(self):
        report = analyze_document(
            {
                "name": "dup",
                "tasks": [
                    {"name": "a", "service": "s"},
                    {"name": "a", "service": "other"},
                    {"name": "b", "service": "s", "depends_on": ["a"]},
                ],
            }
        )
        (finding,) = findings_for(report, "workflow-duplicate-task")
        assert finding.severity is Severity.ERROR
        assert finding.subject == "a"
        assert "rename" in finding.fix_hint

    def test_json_safety(self):
        workflow = Workflow(name="unsafe")
        workflow.add_task(Task(name="a", service="s", metadata={"bad": object()}))
        report = analyze_workflow(workflow)
        findings = findings_for(report, "workflow-json-safety")
        assert findings and findings[0].severity is Severity.ERROR

    def test_document_errors_are_findings_not_exceptions(self):
        report = analyze_document(
            {
                "name": "broken-doc",
                "tasks": [
                    {"name": "a", "service": "s"},
                    {"name": "", "service": "s"},
                    {"name": "b", "service": "s", "depends_on": ["nowhere"]},
                ],
            }
        )
        documents = findings_for(report, "workflow-document")
        assert len(documents) == 2
        assert all(f.severity is Severity.ERROR for f in documents)

    def test_clean_workflow_has_no_findings(self):
        report = analyze_workflow(diamond_workflow(3, 2))
        assert report.ok(Severity.WARNING)
        assert len(report) == 0


# ----------------------------------------------------------- scenario checks
@pytest.fixture()
def scratch_scenario():
    """Register throwaway scenarios and tear them down afterwards."""
    names = []

    def _register(name, factory, **kwargs):
        names.append(name)
        register_scenario(name, factory, **kwargs)

    yield _register
    for name in names:
        scenario_registry.unregister(name)


class TestScenarioChecks:
    def test_cost_profile_drift(self, scratch_scenario):
        def factory(size=4, seed=0):
            workflow = Workflow(name="drifted")
            previous = None
            for index in range(max(2, size)):
                name = f"t{index}"
                workflow.add_task(
                    Task(name=name, service="s", metadata={"stage": "compute"})
                )
                if previous is not None:
                    workflow.add_dependency(previous, name)
                previous = name
            return workflow

        scratch_scenario(
            "drifted-profile", factory, cost_profile={"mystery": (1.0, 2.0)}
        )
        report = analyze_scenario("drifted-profile")
        findings = findings_for(report, "scenario-cost-profile")
        subjects = {f.subject for f in findings}
        assert "mystery" in subjects  # declared but never stamped
        assert "compute" in subjects  # stamped but never declared
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_failure_profile_must_reach_every_task(self, scratch_scenario):
        def factory(size=2, seed=0):
            workflow = Workflow(name="unprofiled")
            workflow.add_task(Task(name="a", service="s", metadata={"idempotent": True}))
            workflow.add_task(Task(name="b", service="s"))
            workflow.add_dependency("a", "b")
            return workflow

        scratch_scenario(
            "missing-profile", factory, failure_profile={"idempotent": True}
        )
        report = analyze_scenario("missing-profile")
        (finding,) = findings_for(report, "scenario-failure-profile")
        assert finding.severity is Severity.ERROR
        assert finding.subject == "idempotent"
        assert "'b'" in finding.message

    def test_nondeterministic_factory(self, scratch_scenario):
        ticks = iter(range(1000))

        def factory(size=2, seed=0):
            workflow = Workflow(name="jittery")
            workflow.add_task(
                Task(name="a", service="s", duration=0.1 + next(ticks))
            )
            workflow.add_task(Task(name="b", service="s"))
            workflow.add_dependency("a", "b")
            return workflow

        scratch_scenario("jittery", factory)
        report = analyze_scenario("jittery")
        (finding,) = findings_for(report, "scenario-determinism")
        assert finding.severity is Severity.ERROR
        assert "seed" in finding.fix_hint


# ------------------------------------------------- shipped catalog is clean
class TestCatalogClean:
    def test_every_registered_scenario_lints_clean(self):
        for name in available_scenarios():
            report = analyze_scenario(name)
            errors = [f for f in report if f.severity is Severity.ERROR]
            assert not errors, f"scenario {name!r}: {[f.message for f in errors]}"

    def test_all_scenarios_report_is_clean(self):
        report = analyze_all_scenarios()
        assert report.ok(Severity.ERROR)
        assert len(report) == 0, [f.message for f in report]

    def test_builtin_encodings_lint_clean(self):
        for workflow in (diamond_workflow(3, 2), adaptive_diamond_workflow(2, 2)):
            report = analyze_encoding(encode_workflow(workflow))
            errors = [f for f in report if f.severity is Severity.ERROR]
            assert not errors, [f.message for f in errors]

    def test_builtin_local_rules_lint_clean(self):
        from repro.agents.local_rules import build_local_rules

        encoding = encode_workflow(adaptive_diamond_workflow(2, 2))
        for name, task in encoding.tasks.items():
            rules = build_local_rules(task)
            report = analyze_rules(
                rules,
                solution=task.initial_solution(rules=()),
                label=f"local rules of {name!r}",
                injected_keys={("symbol", "ADAPT")},
            )
            errors = [f for f in report if f.severity is Severity.ERROR]
            assert not errors, [f.message for f in errors]


# --------------------------------------------------------------- check registry
class TestCheckRegistry:
    def test_builtin_catalog_has_all_checks(self):
        ids = {check.id for check in available_checks()}
        assert {
            "rule-unbound-product",
            "rule-unbound-condition",
            "rule-dead-index-key",
            "rule-duplicate-name",
            "rule-shadowed",
            "rule-template-arity",
            "workflow-cycle",
            "workflow-orphan",
            "workflow-unreachable",
            "workflow-duplicate-task",
            "workflow-json-safety",
            "scenario-cost-profile",
            "scenario-failure-profile",
            "scenario-determinism",
        } <= ids

    def test_custom_check_runs_in_drivers(self):
        @register_check(
            "custom-max-patterns",
            kind="rule",
            severity=Severity.INFO,
            description="flag rules with huge left-hand sides",
        )
        def check_pattern_count(scope):
            for rule in scope.rules:
                if len(rule.patterns) > 1:
                    yield Finding(
                        check="custom-max-patterns",
                        severity=Severity.INFO,
                        subject=rule.name,
                        message="wide rule",
                        location=scope.label,
                    )

        try:
            wide = replace("wide", [Var("x"), Var("y")], [Ref("x"), Ref("y")])
            report = analyze_rules([wide], solution=Multiset([1, 2]))
            (finding,) = findings_for(report, "custom-max-patterns")
            assert finding.severity is Severity.INFO
            assert report.ok(Severity.WARNING)  # info does not fail the gate
        finally:
            registry.unregister("custom-max-patterns")

    def test_duplicate_check_id_rejected(self):
        with pytest.raises(Exception):
            register_check("rule-unbound-product", kind="rule")(lambda scope: [])


# ---------------------------------------------------------------- report API
class TestReportAPI:
    def _report(self):
        report = AnalysisReport()
        report.add(
            Finding(
                check="demo",
                severity=Severity.WARNING,
                subject="x",
                message="m",
                fix_hint="h",
                location="here",
            )
        )
        return report

    def test_fail_on_threshold(self):
        report = self._report()
        assert report.ok(Severity.ERROR)
        assert not report.ok(Severity.WARNING)
        assert report.worst_severity() is Severity.WARNING

    def test_json_payload_round_trips(self):
        payload = json.loads(self._report().to_json(fail_on=Severity.WARNING))
        assert payload["ok"] is False
        assert payload["counts"]["warning"] == 1
        assert payload["findings"][0]["check"] == "demo"

    def test_text_format_groups_by_location(self):
        text = self._report().format_text()
        assert "here" in text and "[warning]" in text and "fix: h" in text


# ------------------------------------------------------------------ rule identity
class TestRuleIdentity:
    def test_equal_rules_hash_equal_across_constructors(self):
        variants = [
            replace("r", [Var("x")], [Ref("x")]),
            replace_one("r", [Var("y")], [Ref("y")]),
            with_inject("r", [Var("z")], [Symbol("GO")]),
        ]
        for left in variants:
            for right in variants:
                assert left == right
                assert hash(left) == hash(right)

    def test_different_names_not_equal(self):
        assert replace("a", [Var("x")], []) != replace("b", [Var("x")], [])

    def test_non_rule_comparison_is_not_implemented(self):
        rule = replace("a", [Var("x")], [])
        assert rule.__eq__("a") is NotImplemented
        assert rule != "a"
        assert "a" != rule


# ------------------------------------------------------------------------ CLI
class TestLintCLI:
    @pytest.fixture()
    def workflow_file(self, tmp_path):
        path = tmp_path / "wf.json"
        workflow_to_json(diamond_workflow(2, 2, duration=0.05), path)
        return str(path)

    @pytest.fixture()
    def broken_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps(
                {
                    "name": "broken",
                    "tasks": [
                        {"name": "a", "service": "s", "depends_on": ["b"]},
                        {"name": "b", "service": "s", "depends_on": ["a"]},
                    ],
                }
            )
        )
        return str(path)

    def test_lint_clean_workflow(self, workflow_file, capsys):
        assert main(["lint", workflow_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_broken_workflow(self, broken_file, capsys):
        assert main(["lint", broken_file]) == 1
        output = capsys.readouterr().out
        assert "workflow-cycle" in output and "[error]" in output

    def test_lint_json_output(self, broken_file, capsys):
        assert main(["lint", broken_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(f["check"] == "workflow-cycle" for f in payload["findings"])

    def test_lint_json_out_artifact(self, broken_file, tmp_path, capsys):
        artifact = tmp_path / "findings.json"
        assert main(["lint", broken_file, "--json-out", str(artifact)]) == 1
        payload = json.loads(artifact.read_text())
        assert payload["findings"]

    def test_lint_scenario(self, capsys):
        assert main(["lint", "--scenario", "epigenomics:size=10"]) == 0

    def test_lint_all_scenarios(self, capsys):
        assert main(["lint", "--all-scenarios", "--fail-on", "error"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_requires_exactly_one_source(self, workflow_file, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", workflow_file, "--all-scenarios"]) == 2

    def test_validate_still_delegates(self, workflow_file, broken_file, capsys):
        assert main(["validate", workflow_file]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["validate", broken_file]) == 2
