"""Lint drivers: turn workflows, scenarios and rule sets into reports.

The drivers are what ``ginflow lint`` and the pytest API call:

* :func:`analyze_rules` — run the rule checks on one solution's rule set;
* :func:`analyze_encoding` — analyze every scope of a
  :class:`~repro.hoclflow.translator.WorkflowEncoding` (the global solution
  plus each task sub-solution), wiring the cross-scope injection keys
  (e.g. the ``ADAPT`` markers a global ``trigger_adapt`` pushes into task
  sub-solutions) so intentionally-injected atoms are not reported as dead;
* :func:`analyze_workflow` — ``Workflow.validate``, the workflow checks,
  then (when none of them errs) the full encoding analysis;
* :func:`analyze_document` — load a JSON document with the one loader
  ``ginflow run`` uses and analyse what it builds; a document the loader
  refuses is one finding carrying the loader's message;
* :func:`analyze_scenario` / :func:`analyze_all_scenarios` — build a
  scenario of the catalog and analyse it.
"""

from __future__ import annotations

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
from repro.workflow.dag import Workflow
from repro.workflow.errors import WorkflowError
from repro.workflow.json_format import workflow_from_json

from .findings import AnalysisReport, Finding, Severity
from .checks import checks_for
from .rule_checks import RuleScope
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


def _refused(error: WorkflowError, subject: str, location: str) -> AnalysisReport:
    """The one finding a refused workflow gets: the refusal's own text, the
    ``error:`` line ``ginflow validate`` prints for it."""
    report = AnalysisReport()
    report.add(
        Finding(
            check="workflow-document",
            severity=Severity.ERROR,
            subject=subject,
            message=str(error),
            fix_hint="fix what the message names; `ginflow run` refuses the workflow until then",
            location=location,
        )
    )
    return report


def analyze_workflow(workflow: Workflow, label: str = "") -> AnalysisReport:
    """The workflow checks, then — if none of them errs — the encoding checks.

    A workflow :meth:`~repro.workflow.dag.Workflow.validate` refuses (no
    task, a cycle, a broken adaptation) gets one ``workflow-document``
    finding carrying the refusal, and nothing else is checked.
    """
    where = label or f"workflow {workflow.name!r}"
    try:
        workflow.validate()
    except WorkflowError as exc:
        return _refused(exc, workflow.name, where)
    report = _run_checks("workflow", WorkflowContext(workflow=workflow, label=where))
    if report.ok(Severity.ERROR):
        report.merge(analyze_encoding(encode_workflow(workflow), label=where))
    return report


def analyze_document(source: str | Path | Mapping[str, Any]) -> AnalysisReport:
    """Lint a JSON workflow document (a path, JSON text or a parsed dict).

    The document is loaded by :func:`~repro.workflow.json_format.workflow_from_json`,
    as ``ginflow run`` and ``ginflow validate`` load it: what the loader
    refuses is one ``workflow-document`` finding carrying its message, and
    what it accepts is analysed as the program a run enacts.
    """
    try:
        workflow = workflow_from_json(source)
    except WorkflowError as exc:
        return _refused(exc, "workflow document", "")
    return analyze_workflow(workflow)


def analyze_scenario(spec: str, **overrides: Any) -> AnalysisReport:
    """Lint one scenario of the catalog (spec syntax ``name[:k=v,...]``)."""
    name, params = parse_scenario_spec(spec)
    params.update(overrides)
    return analyze_workflow(get_scenario(name).build(**params), label=f"scenario {name!r}")


def analyze_all_scenarios() -> AnalysisReport:
    """Lint every scenario of the catalog at its default parameters."""
    report = AnalysisReport()
    for name in available_scenarios():
        report.merge(analyze_scenario(name))
    return report
