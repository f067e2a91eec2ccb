"""Lint drivers: turn workflows, scenarios and rule sets into reports.

The drivers are what ``ginflow lint`` and the pytest API call:

* :func:`analyze_rules` — run the rule checks on one solution's rule set;
* :func:`analyze_encoding` — analyze every scope of a
  :class:`~repro.hoclflow.translator.WorkflowEncoding` (the global solution
  plus each task sub-solution), wiring the cross-scope injection keys
  (e.g. the ``ADAPT`` markers a global ``trigger_adapt`` pushes into task
  sub-solutions) so intentionally-injected atoms are not reported as dead;
* :func:`analyze_workflow` — structural workflow checks, then (when the
  workflow is structurally sound) the full encoding analysis;
* :func:`analyze_document` — lenient loading of a raw JSON document, so a
  broken file yields findings instead of one opaque parse error;
* :func:`analyze_scenario` / :func:`analyze_all_scenarios` — build a
  registered scenario and hold it to its declared profiles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.hocl.multiset import Multiset
from repro.hocl.rules import Rule
from repro.hoclflow.translator import WorkflowEncoding, encode_workflow
from repro.scenarios.registry import (
    available_scenarios,
    get_scenario,
    parse_scenario_spec,
)
from repro.workflow.dag import Task, Workflow
from repro.workflow.errors import JSONFormatError, WorkflowValidationError

from .findings import AnalysisReport, Finding, Severity
from .registry import checks_for
from .rule_checks import RuleScope
from .scenario_checks import ScenarioContext
from .workflow_checks import WorkflowContext

__all__ = [
    "analyze_rules",
    "analyze_encoding",
    "analyze_workflow",
    "analyze_document",
    "analyze_scenario",
    "analyze_all_scenarios",
]


# ------------------------------------------------------------------- helpers
def _run_checks(kind: str, context: Any) -> AnalysisReport:
    report = AnalysisReport()
    for check in checks_for(kind):
        report.extend(check.run(context))
    return report


def _injected_keys(rules: Iterable[Rule]) -> tuple[set[Any], bool]:
    """Index keys the rules can add one solution down from their own, and
    whether they can add any atom there: what the global rules inject into
    the task sub-solutions (``trigger_adapt`` plants the ``ADAPT`` marker)."""
    added = [rule.summary.added(1, rule.given) for rule in rules]
    return set().union(*(keys for keys, _ in added)), any(anything for _, anything in added)


# ------------------------------------------------------------------- drivers
def analyze_rules(
    rules: Iterable[Rule],
    solution: Multiset | None = None,
    label: str = "rules",
    injected_keys: Iterable[Any] = (),
    injected_wildcard: bool = False,
) -> AnalysisReport:
    """Run every rule check on one solution's rule set."""
    scope = RuleScope(
        label=label,
        rules=tuple(rules),
        solution=solution,
        injected_keys=frozenset(injected_keys),
        injected_wildcard=injected_wildcard,
    )
    return _run_checks("rule", scope)


def analyze_encoding(encoding: WorkflowEncoding, label: str = "") -> AnalysisReport:
    """Analyze every rule scope of a workflow encoding.

    One scope per task sub-solution plus one for the global solution.  Task
    scopes receive, as injected keys, whatever the global rules can plant
    inside nested solutions — that is how the ``ADAPT`` marker reaches the
    adaptation rules without being a false "dead index key".
    """
    prefix = f"{label}: " if label else ""
    report = AnalysisReport()
    report.merge(
        analyze_rules(
            encoding.global_rules,
            solution=encoding.to_multiset(include_rules=True),
            label=f"{prefix}global solution",
        )
    )
    injected, wildcard = _injected_keys(encoding.global_rules)
    for name, task in encoding.tasks.items():
        report.merge(
            analyze_rules(
                task.local_rules,
                solution=task.initial_solution(),
                label=f"{prefix}task {name!r}",
                injected_keys=injected,
                injected_wildcard=wildcard,
            )
        )
    return report


def analyze_workflow(
    workflow: Workflow,
    document: Mapping[str, Any] | None = None,
    label: str = "",
) -> AnalysisReport:
    """Structural checks, then — if the workflow is sound — encoding checks."""
    where = label or f"workflow {workflow.name!r}"
    context = WorkflowContext(workflow=workflow, document=document, label=where)
    report = _run_checks("workflow", context)
    structural_errors = [finding for finding in report if finding.severity is Severity.ERROR]
    if not structural_errors and len(workflow) > 0 and workflow.is_valid():
        try:
            encoding = encode_workflow(workflow)
        except (WorkflowValidationError, ValueError) as exc:
            report.add(
                Finding(
                    check="workflow-encoding",
                    severity=Severity.ERROR,
                    subject=workflow.name,
                    message=f"workflow does not encode to HOCL: {exc}",
                    fix_hint="fix the adaptation specifications named in the message",
                    location=where,
                )
            )
        else:
            report.merge(analyze_encoding(encoding, label=where))
    return report


def analyze_document(source: str | Path | Mapping[str, Any]) -> AnalysisReport:
    """Lint a raw JSON workflow document (path, JSON text, or parsed dict).

    Loads *leniently*: structural offences the strict parser would raise on
    (duplicate task names, dependencies on unknown tasks, cycles) become
    findings, and analysis continues on the salvageable part of the DAG.
    """
    report = AnalysisReport()
    document = _load_document(source)
    label = f"workflow {document.get('name', '?')!r}" if isinstance(document, Mapping) else ""
    if not isinstance(document, Mapping):
        report.add(
            Finding(
                check="workflow-document",
                severity=Severity.ERROR,
                subject=str(source),
                message=f"workflow document must be a JSON object, got "
                f"{type(document).__name__}",
                fix_hint='start from {"name": ..., "tasks": [...]}',
                location=label,
            )
        )
        return report
    workflow = _lenient_workflow(document, report, label)
    if workflow is None:
        return report
    return report.merge(analyze_workflow(workflow, document=document, label=label))


def analyze_scenario(spec: str, **overrides: Any) -> AnalysisReport:
    """Lint one registered scenario (spec syntax ``name[:k=v,...]``)."""
    name, params = parse_scenario_spec(spec)
    params.update(overrides)
    scenario = get_scenario(name)
    label = f"scenario {name!r}"
    workflow = scenario.build(**params)
    context = ScenarioContext(scenario=scenario, workflow=workflow, params=params, label=label)
    report = _run_checks("scenario", context)
    return report.merge(analyze_workflow(workflow, label=label))


def analyze_all_scenarios() -> AnalysisReport:
    """Lint every registered scenario at its default parameters."""
    report = AnalysisReport()
    for name in available_scenarios():
        report.merge(analyze_scenario(name))
    return report


# ------------------------------------------------------- lenient doc loading
def _load_document(source: str | Path | Mapping[str, Any]) -> Any:
    if isinstance(source, Mapping):
        return source
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and source.endswith(".json")
    ):
        path = Path(source)
        if not path.exists():
            raise JSONFormatError(f"workflow file not found: {path}")
        text = path.read_text(encoding="utf-8")
    else:
        text = str(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JSONFormatError(f"invalid JSON workflow document: {exc}") from exc


def _lenient_workflow(
    document: Mapping[str, Any], report: AnalysisReport, label: str
) -> Workflow | None:
    """Build a workflow from ``document``, downgrading parse errors to findings.

    Duplicate task names keep their first occurrence; dependencies on
    unknown tasks and self-dependencies are dropped (each with a finding).
    Cycles are *kept* — the workflow checks report them properly.
    """
    name = document.get("name", "workflow")
    tasks = document.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        report.add(
            Finding(
                check="workflow-document",
                severity=Severity.ERROR,
                subject=str(name),
                message=f"workflow {name!r}: 'tasks' must be a non-empty list",
                fix_hint="add at least one task object with name and service",
                location=label,
            )
        )
        return None
    workflow = Workflow(name=str(name))
    dependencies: list[tuple[str, str]] = []
    for entry in tasks:
        if not isinstance(entry, Mapping):
            continue
        task_name = entry.get("name")
        service = entry.get("service")
        if not isinstance(task_name, str) or not task_name or not isinstance(service, str):
            report.add(
                Finding(
                    check="workflow-document",
                    severity=Severity.ERROR,
                    subject=str(task_name),
                    message=f"task entry {task_name!r} lacks a usable name/service",
                    fix_hint="every task needs non-empty string 'name' and 'service'",
                    location=label,
                )
            )
            continue
        if task_name in workflow:
            continue  # workflow-duplicate-task reports it from the raw document
        try:
            workflow.add_task(
                Task(
                    name=task_name,
                    service=service,
                    inputs=list(entry.get("inputs", [])),
                    duration=float(entry.get("duration", 0.0)),
                    metadata=dict(entry.get("metadata", {})),
                )
            )
        except (WorkflowValidationError, TypeError, ValueError) as exc:
            report.add(
                Finding(
                    check="workflow-document",
                    severity=Severity.ERROR,
                    subject=task_name,
                    message=f"task {task_name!r} does not parse: {exc}",
                    fix_hint="fix the offending field named in the message",
                    location=label,
                )
            )
            continue
        for source_name in entry.get("depends_on", []):
            dependencies.append((str(source_name), task_name))
    for source_name, destination in dependencies:
        try:
            workflow.add_dependency(source_name, destination)
        except WorkflowValidationError as exc:
            report.add(
                Finding(
                    check="workflow-document",
                    severity=Severity.ERROR,
                    subject=destination,
                    message=f"dependency {source_name!r} -> {destination!r} is invalid: {exc}",
                    fix_hint="reference existing, distinct task names in depends_on",
                    location=label,
                )
            )
    if len(workflow) == 0:
        return None
    return workflow
