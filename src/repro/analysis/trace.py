"""Audit drivers: run workflows and hold the artifacts to the dynamic checks.

The drivers are what ``ginflow audit`` and the pytest API call:

* :func:`audit_reduction` — run the trace checks on one (possibly merged)
  :class:`~repro.hocl.engine.ReductionReport` against a rule universe;
* :func:`audit_run` — run the run-invariant checks on one
  :class:`~repro.runtime.results.RunReport`;
* :func:`audit_plans` — run the adaptation-plan checks on every plan of a
  :class:`~repro.hoclflow.translator.WorkflowEncoding`;
* :func:`audit_workflow` — the composition: encode, audit the plans,
  enact the workflow ``repeats`` times, audit every run's invariants, and
  audit rule coverage over the fire counters merged across all runs;
* :func:`audit_scenario` / :func:`audit_all_scenarios` — the same, for
  registered scenarios (``ginflow audit --scenario forkjoin:size=20``).

Static analysis (``ginflow lint``, :mod:`repro.analysis.analyzer`) proves
what *cannot* happen; these drivers observe what *did* — together a scenario
run doubles as a correctness oracle.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.hocl.engine import ReductionReport
from repro.hocl.rules import Rule
from repro.hoclflow.translator import WorkflowEncoding, encode_workflow
from repro.runtime.results import RunReport
from repro.scenarios.registry import available_scenarios, get_scenario, parse_scenario_spec
from repro.workflow.dag import Workflow

from .findings import AnalysisReport, Finding, Severity
from .obs_checks import ObsScope
from .plan_checks import PlanScope
from .registry import checks_for
from .trace_checks import RunScope, TraceScope, conditional_rule_names

__all__ = [
    "enactment_rules",
    "audit_reduction",
    "audit_run",
    "audit_plans",
    "audit_workflow",
    "audit_scenario",
    "audit_all_scenarios",
]


def _run_checks(kind: str, context: Any) -> AnalysisReport:
    report = AnalysisReport()
    for check in checks_for(kind):
        report.extend(check.run(context))
    return report


def enactment_rules(encoding: WorkflowEncoding, mode: str = "simulated") -> tuple[Rule, ...]:
    """The rule universe a run of ``encoding`` registers, unique by name.

    Decentralised agents hold :func:`~repro.agents.local_rules.build_local_rules`
    (the shared local ``gw_call``/``gw_pass`` variants plus per-plan local
    triggers); the centralised mode folds the global rules and every task's
    own local rules into one multiset.  Fire counters aggregate by *name*
    across agents, so the universe does too.
    """
    rules: dict[str, Rule] = {}
    if mode == "centralized":
        for rule in encoding.global_rules:
            rules.setdefault(rule.name, rule)
        for task in encoding.tasks.values():
            for rule in task.local_rules:
                rules.setdefault(rule.name, rule)
    else:
        from repro.agents.local_rules import build_local_rules

        for task in encoding.tasks.values():
            for rule in build_local_rules(task):
                rules.setdefault(rule.name, rule)
    return tuple(rules.values())


# ------------------------------------------------------------------- drivers
def audit_reduction(
    report: ReductionReport,
    rules: Iterable[Rule | str] = (),
    label: str = "reduction",
) -> AnalysisReport:
    """Run the trace checks on one reduction report.

    ``rules`` is the rule universe the reduced solution(s) registered —
    :class:`~repro.hocl.rules.Rule` objects enable the conditional-rule
    classification (never-fired failure-path rules downgrade to info);
    bare names disable it.  An empty universe disables the coverage checks.
    """
    rule_objects = [rule for rule in rules if isinstance(rule, Rule)]
    names = tuple(rule.name if isinstance(rule, Rule) else rule for rule in rules)
    scope = TraceScope(
        label=label,
        report=report,
        registered=names,
        conditional=conditional_rule_names(rule_objects),
    )
    return _run_checks("trace", scope)


def audit_run(
    report: RunReport,
    exit_tasks: Iterable[str] = (),
    label: str = "",
) -> AnalysisReport:
    """Run the enactment-invariant checks on one run report."""
    scope = RunScope(
        label=label or f"run ({report.mode})",
        report=report,
        exit_tasks=tuple(exit_tasks),
    )
    return _run_checks("run", scope)


def audit_plans(encoding: WorkflowEncoding, label: str = "") -> AnalysisReport:
    """Run the adaptation-plan checks on every plan of ``encoding``."""
    prefix = f"{label}: " if label else ""
    report = AnalysisReport()
    for plan in encoding.plans:
        scope = PlanScope(
            label=f"{prefix}adaptation {plan.spec.name!r}",
            plan=plan,
            encoding=encoding,
        )
        report.merge(_run_checks("plan", scope))
    return report


def _merged_fires(runs: list[RunReport]) -> ReductionReport:
    """One synthetic reduction report aggregating every run's fire counters."""
    merged = ReductionReport()
    for run in runs:
        fires = run.extra.get("rule_fires")
        if isinstance(fires, dict):
            partial = ReductionReport(
                reactions=sum(fires.values()),
                match_attempts=run.reduction_match_attempts,
                rule_fires=dict(fires),
            )
            merged.merge(partial)
    return merged


def audit_workflow(
    workflow: Workflow,
    *,
    mode: str = "simulated",
    nodes: int = 5,
    seed: int = 1,
    repeats: int = 1,
    timeout: float = 120.0,
    label: str = "",
    **overrides: Any,
) -> AnalysisReport:
    """Enact ``workflow`` ``repeats`` times and audit every artifact.

    Composition: plan checks on the encoding, run-invariant checks on each
    run (seeds ``seed .. seed+repeats-1``), observability checks on each
    run's recorded trace (every audited run records spans and events through
    a per-repeat :class:`~repro.obs.RecordingTracer`), then one coverage
    pass over the fire counters merged across all runs — a rule only has to
    fire in *one* repeat (on *one* agent) to be covered.  A run that does
    not succeed is itself a finding, and disables the coverage pass (a
    cut-off run proves nothing about which rules could have fired).
    """
    from repro.obs import MetricsRegistry, Observability, RecordingTracer
    from repro.runtime import GinFlow, GinFlowConfig

    where = label or f"workflow {workflow.name!r}"
    report = AnalysisReport()
    encoding = encode_workflow(workflow)
    report.merge(audit_plans(encoding, label=where))

    exit_tasks = tuple(workflow.exit_tasks())
    runs: list[RunReport] = []
    all_succeeded = True
    for repeat in range(max(1, repeats)):
        # a fresh tracer per repeat: the obs checks reason about ONE run's
        # spans against that run's report
        obs = Observability(tracer=RecordingTracer(), metrics=MetricsRegistry())
        config = GinFlowConfig(mode=mode, nodes=nodes, seed=seed + repeat, obs=obs)
        run = GinFlow(config).run(workflow, timeout=timeout, **overrides)
        runs.append(run)
        run_label = f"{where}: run {repeat + 1}/{max(1, repeats)} ({mode}, seed={seed + repeat})"
        report.merge(audit_run(run, exit_tasks=exit_tasks, label=run_label))
        scope = ObsScope(
            label=run_label,
            spans=tuple(obs.tracer.spans),
            events=tuple(obs.tracer.events),
            report=run,
        )
        report.merge(_run_checks("obs", scope))
        if not run.succeeded or run.timed_out:
            all_succeeded = False
            reason = "timed out" if run.timed_out else "did not succeed"
            report.add(
                Finding(
                    check="run-enactment-failed",
                    severity=Severity.ERROR,
                    subject=workflow.name,
                    message=f"enactment {reason} (mode={mode}, seed={seed + repeat})",
                    fix_hint="audit expects clean runs; fix the workflow/services "
                    "first, then re-audit",
                    location=run_label,
                )
            )

    merged = _merged_fires(runs)
    if all_succeeded and merged.rule_fires:
        rules = enactment_rules(encoding, mode)
        report.merge(
            audit_reduction(
                merged,
                rules=rules,
                label=f"{where}: coverage over {len(runs)} run(s) ({mode})",
            )
        )
    return report


def audit_scenario(
    spec: str,
    *,
    mode: str = "simulated",
    nodes: int = 5,
    seed: int = 1,
    repeats: int = 1,
    timeout: float = 120.0,
    **params: Any,
) -> AnalysisReport:
    """Audit one registered scenario (spec syntax ``name[:k=v,...]``)."""
    name, spec_params = parse_scenario_spec(spec)
    spec_params.update(params)
    scenario = get_scenario(name)
    workflow = scenario.build(**spec_params)
    return audit_workflow(
        workflow,
        mode=mode,
        nodes=nodes,
        seed=seed,
        repeats=repeats,
        timeout=timeout,
        label=f"scenario {name!r}",
    )


def audit_all_scenarios(
    *,
    size: int = 20,
    mode: str = "simulated",
    nodes: int = 5,
    seed: int = 1,
    repeats: int = 1,
    timeout: float = 120.0,
) -> AnalysisReport:
    """Audit every registered scenario at a small size (CI smoke profile)."""
    report = AnalysisReport()
    for name in available_scenarios():
        report.merge(
            audit_scenario(
                name,
                mode=mode,
                nodes=nodes,
                seed=seed,
                repeats=repeats,
                timeout=timeout,
                size=size,
            )
        )
    return report
