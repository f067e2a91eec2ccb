"""Tests for the dynamic analyzer behind ``ginflow audit``.

Mirror image of test_analysis.py for the dynamic check families: each trace
/ run / plan check gets a deliberately-violating fixture (a never-firing
rule, a broken adaptation plan, a tampered RunReport) that must produce the
expected finding, and every shipped scenario family must audit clean at
``--fail-on error``.
"""

import json

import pytest

from repro.analysis import (
    Finding,
    Severity,
    audit_all_scenarios,
    audit_plans,
    audit_reduction,
    audit_run,
    audit_scenario,
    audit_workflow,
    available_checks,
    register_check,
    registry,
)
from repro.agents.coordinator import TimelineEvent
from repro.analysis.obs_checks import ObsScope, reduction_phase_totals
from repro.analysis.plan_checks import PlanScope
from repro.analysis.trace import enactment_rules
from repro.analysis.trace_checks import conditional_rule_names
from repro.obs import EventRecord, SpanRecord
from repro.cli import main
from repro.hocl import Ref, Symbol, Var, replace
from repro.hocl.engine import ReductionReport
from repro.hoclflow import keywords as kw
from repro.hoclflow.adaptation import build_plan
from repro.hoclflow.translator import encode_workflow
from repro.runtime import GinFlow, GinFlowConfig
from repro.runtime.results import RunReport, TaskOutcome
from repro.scenarios import available_scenarios, register_scenario
from repro.scenarios.registry import registry as scenario_registry
from repro.workflow import Task, Workflow, adaptive_diamond_workflow, diamond_workflow


def findings_for(report, check):
    return report.by_check(check)


def no_handoff_workflow(size=2, seed=0):
    """Two disconnected tasks: every agent registers ``gw_pass`` but no task
    ever has a destination, so the rule never fires anywhere — the seeded
    never-fired fixture."""
    workflow = Workflow(name="no-handoff")
    for index in range(max(2, size)):
        workflow.add_task(Task(name=f"t{index}", service="s", duration=0.05))
    return workflow


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


def simulated_run(workflow, seed=1, **overrides):
    return GinFlow(GinFlowConfig(mode="simulated", nodes=5, seed=seed)).run(
        workflow, timeout=120.0, **overrides
    )


# ------------------------------------------------------------- fire counters
class TestFireCounters:
    def test_run_report_carries_per_rule_fires(self):
        run = simulated_run(diamond_workflow(2, 2, duration=0.05))
        fires = run.extra["rule_fires"]
        assert run.succeeded
        assert sum(fires.values()) == run.reduction_reactions
        assert fires["gw_setup"] > 0 and fires["gw_call"] > 0 and fires["gw_pass"] > 0
        registered = run.extra["rules_registered"]
        assert set(fires) <= set(registered)

    def test_reduction_report_merge_accumulates_fires(self):
        left = ReductionReport(reactions=2, rule_fires={"a": 2})
        right = ReductionReport(reactions=3, rule_fires={"a": 1, "b": 2})
        left.merge(right)
        assert left.rule_fires == {"a": 3, "b": 2}
        assert sum(left.rule_fires.values()) == left.reactions == 5


# ------------------------------------------------------------- trace checks
class TestTraceChecks:
    def test_never_fired_rule_is_an_error(self):
        trace = ReductionReport(reactions=1, rule_fires={"fires": 1}, inert=True)
        report = audit_reduction(trace, rules=["fires", "silent"])
        (finding,) = findings_for(report, "trace-rule-never-fired")
        assert finding.severity is Severity.ERROR
        assert finding.subject == "silent"

    def test_conditional_rule_downgrades_to_info(self):
        adaptation = replace("on_adapt", [Symbol(kw.ADAPT)], [])
        plain = replace("plain", [Var("x")], [Ref("x")])
        assert conditional_rule_names([adaptation, plain]) == frozenset({"on_adapt"})
        trace = ReductionReport(reactions=1, rule_fires={"plain": 1})
        report = audit_reduction(trace, rules=[adaptation, plain])
        (finding,) = findings_for(report, "trace-rule-never-fired")
        assert finding.severity is Severity.INFO
        assert finding.subject == "on_adapt"
        assert report.ok(Severity.WARNING)

    def test_unknown_fired_rule_is_an_error(self):
        trace = ReductionReport(reactions=3, rule_fires={"known": 1, "ghost": 2})
        report = audit_reduction(trace, rules=["known"])
        (finding,) = findings_for(report, "trace-unknown-rule")
        assert finding.severity is Severity.ERROR
        assert finding.subject == "ghost"

    def test_unknown_rule_skipped_without_a_universe(self):
        trace = ReductionReport(reactions=2, rule_fires={"whatever": 2})
        report = audit_reduction(trace)  # no registered rules
        assert not findings_for(report, "trace-unknown-rule")
        assert not findings_for(report, "trace-rule-never-fired")

    def test_non_inert_trace_is_an_error(self):
        report = audit_reduction(ReductionReport(inert=False))
        (finding,) = findings_for(report, "trace-non-inert")
        assert finding.severity is Severity.ERROR
        assert "step limit" in finding.message

    def test_fire_counter_sum_must_match_reactions(self):
        trace = ReductionReport(reactions=5, rule_fires={"a": 1})
        report = audit_reduction(trace)
        (finding,) = findings_for(report, "trace-accounting")
        assert "1" in finding.message and "5" in finding.message


# --------------------------------------------------------------- run checks
class TestRunChecks:
    def test_lost_message_is_an_error(self):
        run = RunReport(succeeded=True, messages_published=5, messages_delivered=4)
        (finding,) = findings_for(audit_run(run), "run-message-accounting")
        assert finding.severity is Severity.ERROR
        assert "5" in finding.message and "4" in finding.message

    def test_missing_broker_counters_are_skipped(self):
        run = RunReport(succeeded=True)  # centralized runs report no counters
        assert not findings_for(audit_run(run), "run-message-accounting")

    def test_task_bookkeeping_contradictions(self):
        run = RunReport(succeeded=True)
        run.tasks["a"] = TaskOutcome(task="a", state="completed", result=None, attempts=1)
        run.tasks["b"] = TaskOutcome(task="b", state="failed", error=False, attempts=1)
        run.tasks["c"] = TaskOutcome(
            task="c", state="completed", result=1, attempts=1, failures=3
        )
        run.tasks["d"] = TaskOutcome(
            task="d", state="completed", result=1, attempts=1, started_at=2.0, finished_at=1.0
        )
        findings = findings_for(audit_run(run), "run-task-bookkeeping")
        assert {f.subject for f in findings} == {"a", "b", "c", "d"}
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_succeeded_and_timed_out_contradict(self):
        run = RunReport(succeeded=True, timed_out=True)
        (finding,) = findings_for(audit_run(run), "run-exit-terminal")
        assert "timed_out" in finding.message

    def test_succeeded_run_needs_exit_results(self):
        run = RunReport(succeeded=True)
        run.tasks["sink"] = TaskOutcome(task="sink", state="completed", result=None, attempts=1)
        report = audit_run(run, exit_tasks=["sink", "missing"])
        subjects = {f.subject for f in findings_for(report, "run-exit-terminal")}
        assert subjects == {"sink", "missing"}

    def test_timeline_must_not_go_backwards(self):
        run = RunReport(succeeded=True)
        run.timeline = [
            TimelineEvent(time=2.0, task="a", event="ready"),
            TimelineEvent(time=1.0, task="a", event="invoking"),
        ]
        (finding,) = findings_for(audit_run(run), "run-status-ordering")
        assert "backwards" in finding.message

    def test_illegal_state_succession(self):
        run = RunReport(succeeded=True)
        run.timeline = [
            TimelineEvent(time=1.0, task="a", event="completed"),
            TimelineEvent(time=2.0, task="a", event="invoking"),
        ]
        (finding,) = findings_for(audit_run(run), "run-status-ordering")
        assert "'completed' -> 'invoking'" in finding.message

    def test_recovery_resets_the_state_machine(self):
        run = RunReport(succeeded=True)
        run.timeline = [
            TimelineEvent(time=1.0, task="a", event="invoking"),
            TimelineEvent(time=2.0, task="a", event="failed"),
            TimelineEvent(time=3.0, task="a", event="recovery"),
            TimelineEvent(time=4.0, task="a", event="invoking"),
            TimelineEvent(time=5.0, task="a", event="completed"),
        ]
        assert not findings_for(audit_run(run), "run-status-ordering")

    def test_reduction_aggregates_must_agree(self):
        run = RunReport(succeeded=True, reduction_reactions=10, reduction_match_attempts=50)
        run.extra["rule_fires"] = {"gw_setup": 4, "gw_call": 4}
        (finding,) = findings_for(audit_run(run), "run-reduction-accounting")
        assert "8" in finding.message and "10" in finding.message

    def test_more_reactions_than_match_attempts_is_impossible(self):
        run = RunReport(succeeded=True, reduction_reactions=10, reduction_match_attempts=3)
        (finding,) = findings_for(audit_run(run), "run-reduction-accounting")
        assert "match attempts" in finding.message


# --------------------------------------------- tampered real-run artifacts
class TestTamperedRunReport:
    @pytest.fixture(scope="class")
    def clean_run(self):
        return simulated_run(diamond_workflow(2, 2, duration=0.05))

    def test_clean_run_audits_clean(self, clean_run):
        report = audit_run(clean_run, exit_tasks=["merge"])
        assert report.ok(Severity.WARNING), [f.message for f in report]

    def test_tampered_delivery_counter_is_caught(self, clean_run):
        import copy

        run = copy.deepcopy(clean_run)
        run.messages_delivered += 1
        assert findings_for(audit_run(run), "run-message-accounting")

    def test_tampered_reaction_total_is_caught(self, clean_run):
        import copy

        run = copy.deepcopy(clean_run)
        run.reduction_reactions += 1
        assert findings_for(audit_run(run), "run-reduction-accounting")

    def test_reversed_timeline_is_caught(self, clean_run):
        import copy

        run = copy.deepcopy(clean_run)
        run.timeline = list(reversed(run.timeline))
        assert findings_for(audit_run(run), "run-status-ordering")


# ----------------------------------------------------------------- obs checks
def run_obs_check(check_id, scope):
    checks = {check.id: check for check in available_checks()}
    return list(checks[check_id].run(scope))


class TestObsChecks:
    def test_span_ending_before_start_is_flagged(self):
        scope = ObsScope(
            label="fixture",
            spans=(SpanRecord(name="agent.boot", track="a", start=2.0, end=1.0),),
        )
        (finding,) = run_obs_check("obs-span-unclosed", scope)
        assert finding.severity is Severity.ERROR
        assert "before it starts" in finding.message

    def test_orphan_reduction_span_is_flagged(self):
        # track "a" has a stimulus window, but the match span lives outside it
        scope = ObsScope(
            label="fixture",
            spans=(
                SpanRecord(name="agent.boot", track="a", start=0.0, end=1.0),
                SpanRecord(name="reduction.match", track="a", start=2.0, end=3.0),
            ),
        )
        (finding,) = run_obs_check("obs-span-unclosed", scope)
        assert finding.subject == "reduction.match"
        assert "not nested" in finding.message

    def test_stimulus_free_tracks_skip_the_nesting_check(self):
        # the centralized track records reduction spans with no agent spans
        scope = ObsScope(
            label="fixture",
            spans=(SpanRecord(name="reduction.match", track="centralized", start=0.0, end=1.0),),
        )
        assert run_obs_check("obs-span-unclosed", scope) == []

    def test_broker_event_counts_must_match_report(self):
        run = RunReport(succeeded=True, messages_published=2, messages_delivered=3)
        scope = ObsScope(
            label="fixture",
            events=(
                EventRecord(name="broker.publish", track="broker", time=0.1),
                EventRecord(name="broker.deliver", track="broker", time=0.2, attrs={"count": 2}),
            ),
            report=run,
        )
        findings = run_obs_check("obs-broker-accounting", scope)
        assert len(findings) == 2
        assert all(f.severity is Severity.ERROR for f in findings)
        assert any("broker.publish" in f.message for f in findings)
        assert any("broker.deliver" in f.message for f in findings)

    def test_broker_check_skips_without_report_or_events(self):
        events = (EventRecord(name="broker.publish", track="broker", time=0.1),)
        assert run_obs_check("obs-broker-accounting", ObsScope(label="f", events=events)) == []
        run = RunReport(succeeded=True, messages_published=5)
        assert run_obs_check("obs-broker-accounting", ObsScope(label="f", report=run)) == []

    def test_phase_totals_sum_the_reduction_spans(self):
        spans = (
            SpanRecord(name="reduction.match", track="a", start=0.0, end=0.3),
            SpanRecord(
                name="reduction.rewrite", track="a", start=0.3, end=0.5,
                attrs={"index_seconds": 0.1},
            ),
        )
        assert reduction_phase_totals(spans) == pytest.approx(
            {"match": 0.3, "rewrite": 0.2, "patch": 0.0, "index": 0.1}
        )

    def test_audited_runs_record_clean_traces(self):
        # audit_workflow wires a RecordingTracer per repeat; a clean workflow
        # must produce zero obs findings across the whole composition
        report = audit_workflow(diamond_workflow(2, 2, duration=0.05))
        for check_id in ("obs-span-unclosed", "obs-broker-accounting"):
            assert not findings_for(report, check_id), check_id


# ---------------------------------------------------- adaptation-plan checks
def tampering_build_plan(tamper):
    """A ``build_plan`` stand-in that corrupts the real plan after building."""

    def build(workflow, spec):
        plan = build_plan(workflow, spec)
        tamper(plan)
        return plan

    return build


def tampered_encoding(monkeypatch, tamper):
    monkeypatch.setattr(
        "repro.hoclflow.translator.build_plan", tampering_build_plan(tamper)
    )
    return encode_workflow(adaptive_diamond_workflow(2, 2))


class TestPlanChecks:
    def test_shipped_adaptive_plan_audits_clean(self):
        encoding = encode_workflow(adaptive_diamond_workflow(2, 2))
        report = audit_plans(encoding)
        assert report.ok(Severity.WARNING), [f.message for f in report]
        assert len(report) == 0

    def test_ghost_task_reference(self, monkeypatch):
        def tamper(plan):
            plan.new_sources = ["ghost-task"]

        report = audit_plans(tampered_encoding(monkeypatch, tamper))
        (finding,) = findings_for(report, "plan-task-existence")
        assert finding.severity is Severity.ERROR
        assert finding.subject == "ghost-task"
        assert "MVSRC" in finding.message

    def test_missing_adapt_consumer(self):
        # tamper *after* encoding: the translator never placed an add_dst
        # rule for the source added behind its back
        encoding = encode_workflow(adaptive_diamond_workflow(2, 2))
        encoding.plans[0].sources.append("merge")
        report = audit_plans(encoding)
        findings = findings_for(report, "plan-adapt-consumers")
        assert findings and all(f.severity is Severity.ERROR for f in findings)
        assert any("add_dst" in f.message for f in findings)

    def test_unwired_trigger_task(self):
        encoding = encode_workflow(adaptive_diamond_workflow(2, 2))
        encoding.plans[0].trigger_tasks = ["split"]  # never actually wired
        report = audit_plans(encoding)
        findings = findings_for(report, "plan-trigger-wiring")
        # both the decentralised and the centralised wire are missing
        assert len(findings) == 2
        assert {f.subject for f in findings} == {"split"}

    def test_replay_parity_holds_for_shipped_plans(self):
        encoding = encode_workflow(adaptive_diamond_workflow(2, 2))
        for plan in encoding.plans:
            scope = PlanScope(label="parity", plan=plan, encoding=encoding)
            checks = {check.id: check for check in available_checks()}
            findings = list(checks["plan-replay-parity"].run(scope))
            assert findings == []


# ------------------------------------------------------- end-to-end drivers
class TestAuditDrivers:
    def test_seeded_never_fired_rule_is_flagged(self):
        report = audit_workflow(no_handoff_workflow())
        errors = [f for f in findings_for(report, "trace-rule-never-fired")]
        assert any(f.subject == "gw_pass" and f.severity is Severity.ERROR for f in errors)
        assert not report.ok(Severity.ERROR)

    def test_adaptive_workflow_audits_fully_clean(self):
        # the replaced body's last task fails by design, so the adaptation
        # fires and even the conditional rules get covered: zero findings.
        report = audit_workflow(adaptive_diamond_workflow(2, 2))
        assert len(report) == 0, [f.message for f in report]

    def test_failed_enactment_disables_coverage(self):
        workflow = diamond_workflow(2, 2, duration=0.05)
        workflow.task("merge").metadata["force_error"] = True
        report = audit_workflow(workflow)
        assert findings_for(report, "run-enactment-failed")
        # no coverage pass ran, so no (bogus) never-fired findings either
        assert not findings_for(report, "trace-rule-never-fired")

    def test_repeats_merge_coverage_across_runs(self):
        report = audit_scenario("forkjoin:size=12", repeats=2)
        assert report.ok(Severity.ERROR), [f.message for f in report]

    def test_enactment_rules_universe(self):
        encoding = encode_workflow(adaptive_diamond_workflow(2, 2))
        decentralized = {rule.name for rule in enactment_rules(encoding)}
        centralized = {rule.name for rule in enactment_rules(encoding, "centralized")}
        assert {"gw_setup", "gw_call", "gw_pass"} <= decentralized
        assert any(name.startswith("trigger_adapt:") for name in decentralized)
        assert any(name.startswith("trigger_adapt:") for name in centralized)

    def test_custom_trace_check_runs_in_audit(self):
        @register_check(
            "custom-min-reactions",
            kind="trace",
            severity=Severity.WARNING,
            description="flag suspiciously tiny traces",
        )
        def check_min_reactions(scope):
            if scope.report.reactions < 10:
                yield Finding(
                    check="custom-min-reactions",
                    severity=Severity.WARNING,
                    subject=scope.label,
                    message=f"only {scope.report.reactions} reactions",
                    location=scope.label,
                )

        try:
            report = audit_reduction(ReductionReport(reactions=3, rule_fires={"a": 3}))
            (finding,) = findings_for(report, "custom-min-reactions")
            assert finding.severity is Severity.WARNING
        finally:
            registry.unregister("custom-min-reactions")


# ------------------------------------------------- shipped catalog is clean
class TestCatalogAuditsClean:
    def test_every_scenario_family_audits_clean(self):
        report = audit_all_scenarios(size=12)
        errors = [f for f in report if f.severity is Severity.ERROR]
        assert not errors, [f"{f.check}: {f.message}" for f in errors]
        assert len(available_scenarios()) >= 8

    @pytest.mark.parametrize("mode", ["threaded", "asyncio", "centralized"])
    def test_other_runtimes_audit_clean(self, mode):
        report = audit_scenario("epigenomics:size=10", mode=mode)
        errors = [f for f in report if f.severity is Severity.ERROR]
        assert not errors, [f"{f.check}: {f.message}" for f in errors]


# ------------------------------------------------------------------------ CLI
class TestAuditCLI:
    def test_audit_clean_scenario(self, capsys):
        assert main(["audit", "--scenario", "forkjoin:size=12"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_audit_flags_seeded_never_fired_rule(self, scratch_scenario, capsys):
        scratch_scenario("no-handoff-scratch", no_handoff_workflow)
        assert main(["audit", "--scenario", "no-handoff-scratch"]) == 1
        output = capsys.readouterr().out
        assert "trace-rule-never-fired" in output and "gw_pass" in output

    def test_audit_flags_broken_plan(self, scratch_scenario, monkeypatch, capsys):
        def factory(size=2, seed=0):
            return adaptive_diamond_workflow(2, 2)

        def tamper(plan):
            plan.new_sources = ["ghost-task"]

        scratch_scenario("broken-plan-scratch", factory)
        monkeypatch.setattr(
            "repro.hoclflow.translator.build_plan", tampering_build_plan(tamper)
        )
        assert main(["audit", "--scenario", "broken-plan-scratch"]) == 1
        output = capsys.readouterr().out
        assert "plan-task-existence" in output and "ghost-task" in output

    def test_audit_json_payload(self, scratch_scenario, capsys):
        scratch_scenario("no-handoff-json", no_handoff_workflow)
        assert main(["audit", "--scenario", "no-handoff-json", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(f["check"] == "trace-rule-never-fired" for f in payload["findings"])

    def test_audit_json_out_artifact(self, scratch_scenario, tmp_path, capsys):
        scratch_scenario("no-handoff-artifact", no_handoff_workflow)
        artifact = tmp_path / "audit.json"
        assert (
            main(["audit", "--scenario", "no-handoff-artifact", "--json-out", str(artifact)])
            == 1
        )
        assert json.loads(artifact.read_text())["findings"]

    def test_audit_workflow_file(self, tmp_path, capsys):
        from repro.workflow.json_format import workflow_to_json

        path = tmp_path / "wf.json"
        workflow_to_json(diamond_workflow(2, 2, duration=0.05), path)
        assert main(["audit", str(path)]) == 0

    def test_audit_requires_exactly_one_target(self, capsys):
        assert main(["audit"]) == 2
        assert main(["audit", "--all-scenarios", "--scenario", "forkjoin"]) == 2


# --------------------------------------------------------------- check registry
class TestDynamicCheckRegistry:
    def test_builtin_catalog_has_all_dynamic_checks(self):
        ids = {check.id for check in available_checks()}
        assert {
            "trace-rule-never-fired",
            "trace-unknown-rule",
            "trace-non-inert",
            "trace-accounting",
            "run-message-accounting",
            "run-task-bookkeeping",
            "run-exit-terminal",
            "run-status-ordering",
            "run-reduction-accounting",
            "plan-task-existence",
            "plan-adapt-consumers",
            "plan-trigger-wiring",
            "plan-replay-parity",
            "obs-span-unclosed",
            "obs-broker-accounting",
        } <= ids
