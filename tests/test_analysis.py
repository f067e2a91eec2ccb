"""Tests for repro.analysis: the static analyzer behind ``ginflow lint``.

Each built-in check gets a deliberately-broken fixture that must produce the
expected finding (check id, severity, subject, fix hint), and the shipped
catalog — every scenario of the table plus the built-in generic/local rule
sets — must lint clean at ``--fail-on error``.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import AnalysisReport, Finding, Severity
from repro.analysis.analyzer import (
    analyze_all_scenarios,
    analyze_document,
    analyze_encoding,
    analyze_rules,
    analyze_scenario,
    analyze_workflow,
)
from repro.analysis.checks import available_checks
from repro.cli import main
from repro.analysis.analyzer import _injected_keys
from repro.analysis.checks import CHECK_KINDS, CHECKS, AnalysisCheck
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
from repro.scenarios import available_scenarios
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
        from repro.hocl.parser import parse_program

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
    def test_a_cycle_built_in_memory_is_one_finding_naming_it(self):
        workflow = Workflow(name="cyclic")
        for name in "abc":
            workflow.add_task(Task(name=name, service="s"))
        workflow.chain("a", "b", "c", "a")
        (finding,) = analyze_workflow(workflow)
        assert finding.check == "workflow-document" and finding.severity is Severity.ERROR
        assert "contains a cycle" in finding.message and all(repr(name) in finding.message for name in "abc")

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

    def test_json_safety(self):
        workflow = Workflow(name="unsafe")
        workflow.add_task(Task(name="a", service="s", metadata={"bad": object()}))
        report = analyze_workflow(workflow)
        findings = findings_for(report, "workflow-json-safety")
        assert findings and findings[0].severity is Severity.ERROR

    def test_document_errors_are_findings_not_exceptions(self):
        """The loader reports its first refusal: one finding, not one per offence."""
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
        (finding,) = report
        assert finding.check == "workflow-document" and finding.severity is Severity.ERROR
        assert "non-empty string" in finding.message

    def test_clean_workflow_has_no_findings(self):
        report = analyze_workflow(diamond_workflow(3, 2))
        assert report.ok(Severity.WARNING)
        assert len(report) == 0


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


# ------------------------------------------------------------------ check table
def literal_keys(path, table):
    """The keys written in the dict literal assigned to ``table`` in ``path``
    (a key written twice shows twice here, once in the dict)."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    (literal,) = [
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == table
    ]
    return [key.value for key in literal.keys]


class TestCheckTable:
    def test_builtin_catalog_has_all_checks(self):
        ids = {check.id for check in available_checks()}
        assert {
            "rule-unbound-product",
            "rule-unbound-condition",
            "rule-dead-index-key",
            "rule-duplicate-name",
            "rule-shadowed",
            "rule-template-arity",
            "workflow-orphan",
            "workflow-json-safety",
        } <= ids

    def test_every_row_is_one_check_under_its_own_id(self):
        import repro.analysis.checks as checks

        written = literal_keys(checks.__file__, "CHECKS")
        assert len(written) == len(set(written)) == len(CHECKS) == 20
        assert tuple(written) == tuple(CHECKS) == tuple(check.id for check in available_checks())
        for check_id, check in CHECKS.items():
            assert check.id == check_id
            assert check.kind in CHECK_KINDS, check_id
            assert isinstance(check.severity, Severity) and check.description and callable(check.func)

    def test_custom_check_runs_in_drivers(self, monkeypatch):
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

        monkeypatch.setitem(CHECKS, "custom-max-patterns", AnalysisCheck(
            "custom-max-patterns", "rule", Severity.INFO, "flag rules with huge left-hand sides", check_pattern_count,
        ))
        wide = replace("wide", [Var("x"), Var("y")], [Ref("x"), Ref("y")])
        report = analyze_rules([wide], solution=Multiset([1, 2]))
        (finding,) = findings_for(report, "custom-max-patterns")
        assert finding.severity is Severity.INFO
        assert report.ok(Severity.WARNING)  # info does not fail the gate


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
        assert "workflow-document" in output and "[error]" in output and "contains a cycle" in output

    def test_lint_json_output(self, broken_file, capsys):
        assert main(["lint", broken_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [f["check"] for f in payload["findings"]] == ["workflow-document"]

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


def _document(tasks=None, **top):
    if tasks is None:
        tasks = [{"name": name, "service": "s", "depends_on": list(source)} for name, source in zip("abc", ("", "a", "b"))]
    return json.dumps({"name": "hostile", "tasks": tasks, **top})


def _adaptation(**fields):
    replacement = {"name": "alt", "tasks": [{"name": "b2", "service": "s"}]}
    return [{"name": "swap", "replaced": ["b"], "entry_sources": {"b2": ["a"]}, "replacement": replacement, **fields}]


#: documents the loader refuses, one per way of being wrong
HOSTILE_DOCUMENTS = {
    "invalid-json": '{"name": "hostile", "tasks": [',
    "not-an-object": "[1, 2]",
    "empty-tasks": _document([]),
    "unknown-document-key": _document(task=[]),
    "unknown-task-key": _document([{"name": "a", "service": "s"}, {"name": "b", "service": "s", "sources": ["a"]}]),
    "unknown-adaptation-key": _document(adaptations=_adaptation(trigger=["b"])),
    "wrong-type": _document([{"name": "a", "service": "s", "duration": "slow"}]),
    "duplicate-task": _document([{"name": "a", "service": "s"}, {"name": "a", "service": "t"}]),
    "self-dependency": _document([{"name": "a", "service": "s", "depends_on": ["a"]}]),
    "unknown-dependency": _document([{"name": "a", "service": "s", "depends_on": ["nowhere"]}]),
    "cycle": _document([{"name": "a", "service": "s", "depends_on": ["b"]}, {"name": "b", "service": "s", "depends_on": ["a"]}]),
    "adaptation-of-an-unknown-task": _document(adaptations=_adaptation(replaced=["ghost"])),
}


class TestLintAndValidateAgree:
    @pytest.mark.parametrize("text", HOSTILE_DOCUMENTS.values(), ids=HOSTILE_DOCUMENTS.keys())
    def test_a_hostile_document_is_one_error_carrying_the_loaders_message(self, text, tmp_path, capsys):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        validated = capsys.readouterr()
        assert validated.out == "" and validated.err.startswith("error: ") and validated.err.count("\n") == 1
        message = validated.err[len("error: "):-1]
        assert main(["lint", str(path), "--json"]) == 1
        linted = capsys.readouterr()
        (finding,) = json.loads(linted.out)["findings"]
        assert (finding["check"], finding["severity"], finding["message"]) == ("workflow-document", "error", message)
        assert "Traceback" not in validated.err + linted.out + linted.err

    def test_lint_analyses_the_program_a_run_enacts(self, tmp_path, monkeypatch, capsys):
        from repro.analysis import analyzer

        path = tmp_path / "adaptive.json"
        workflow_to_json(adaptive_diamond_workflow(3, 3), path)
        encodings, analyze_encoding = [], analyzer.analyze_encoding
        monkeypatch.setattr(analyzer, "analyze_encoding", lambda encoding, label="": encodings.append(encoding) or analyze_encoding(encoding, label))
        assert main(["lint", str(path), "--fail-on", "error"]) == 0
        (encoding,) = encodings
        rules = len(encoding.global_rules) + sum(len(task.local_rules) for task in encoding.tasks.values())
        assert (rules, len(encoding.plans)) == (47, 1)
