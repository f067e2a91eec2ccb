"""The check catalog — named, severity-tagged analyzer checks.

The checks are the rows of one closed table, :data:`CHECKS`, which the
drivers read by kind, in table order: :mod:`repro.analysis.analyzer`
(``ginflow lint``) the static kinds, :mod:`repro.analysis.trace` (``ginflow
audit``) the dynamic ones.

A check function receives the context object of its kind (``"rule"`` →
:class:`~repro.analysis.rule_checks.RuleScope`, ``"workflow"`` →
:class:`~repro.analysis.workflow_checks.WorkflowContext`, ``"trace"`` →
:class:`~repro.analysis.trace_checks.TraceScope`, ``"run"`` →
:class:`~repro.analysis.trace_checks.RunScope`, ``"plan"`` →
:class:`~repro.analysis.plan_checks.PlanScope`, ``"obs"`` →
:class:`~repro.analysis.obs_checks.ObsScope`) and returns an iterable of
:class:`~repro.analysis.findings.Finding`.  The first two kinds are
static (``ginflow lint``); the others are dynamic, consuming run
artifacts (``ginflow audit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from . import obs_checks, plan_checks, rule_checks, trace_checks, workflow_checks
from .findings import Finding, Severity

__all__ = ["CHECK_KINDS", "CHECKS", "AnalysisCheck", "available_checks", "checks_for"]

#: The context kinds a check can attach to.  ``rule``/``workflow``
#: are the static kinds (``ginflow lint``); ``trace``/``run``/``plan``/``obs``
#: are the dynamic kinds consuming run artifacts (``ginflow audit``).
CHECK_KINDS = ("rule", "workflow", "trace", "run", "plan", "obs")

#: A check: context object in, findings out.
CheckFunction = Callable[[Any], Iterable[Finding]]


@dataclass(frozen=True)
class AnalysisCheck:
    """One check: an identifier, a kind, and the function itself.

    Attributes
    ----------
    id:
        Stable identifier (``"rule-unbound-product"``), also stamped on every
        finding the check produces.
    kind:
        Which context the check inspects — one of :data:`CHECK_KINDS`.
    severity:
        Default severity of the findings (informational; checks may emit
        individual findings at other severities).
    description:
        One-line human description shown by the check catalog.
    func:
        The check function.
    """

    id: str
    kind: str
    severity: Severity
    description: str
    func: CheckFunction

    def run(self, context: Any) -> list[Finding]:
        """Run the check on ``context`` and return its findings."""
        return list(self.func(context))


ERROR, WARNING = Severity.ERROR, Severity.WARNING

#: Every check by id, static kinds first, in the order the drivers run them.
CHECKS: dict[str, AnalysisCheck] = {
    "rule-unbound-product": AnalysisCheck(
        "rule-unbound-product", "rule", ERROR, "product templates must only reference variables the patterns bind",
        rule_checks.check_unbound_product,
    ),
    "rule-unbound-condition": AnalysisCheck(
        "rule-unbound-condition", "rule", WARNING, "conditions and effects must only read variables the patterns bind",
        rule_checks.check_unbound_condition,
    ),
    "rule-dead-index-key": AnalysisCheck(
        "rule-dead-index-key", "rule", ERROR, "every pattern index key must be reachable in the target solution",
        rule_checks.check_dead_index_key,
    ),
    "rule-duplicate-name": AnalysisCheck(
        "rule-duplicate-name", "rule", ERROR, "rule names must be unique within a solution",
        rule_checks.check_duplicate_name,
    ),
    "rule-shadowed": AnalysisCheck(
        "rule-shadowed", "rule", WARNING,
        "an earlier unconditional n-shot rule can starve a later rule at the same priority",
        rule_checks.check_shadowed,
    ),
    "rule-template-arity": AnalysisCheck(
        "rule-template-arity", "rule", ERROR, "Ref is for scalar bindings, Splice for omega bindings",
        rule_checks.check_template_arity,
    ),
    "workflow-orphan": AnalysisCheck(
        "workflow-orphan", "workflow", WARNING, "tasks disconnected from the rest of the workflow are suspicious",
        workflow_checks.check_orphans,
    ),
    "workflow-json-safety": AnalysisCheck(
        "workflow-json-safety", "workflow", ERROR, "task inputs/metadata must survive the JSON round-trip losslessly",
        workflow_checks.check_json_safety,
    ),
    "trace-rule-never-fired": AnalysisCheck(
        "trace-rule-never-fired", "trace", ERROR, "every registered rule should fire at least once across the trace",
        trace_checks.check_rule_never_fired,
    ),
    "trace-unknown-rule": AnalysisCheck(
        "trace-unknown-rule", "trace", ERROR, "every fired rule must be a registered one",
        trace_checks.check_unknown_rule,
    ),
    "run-message-accounting": AnalysisCheck(
        "run-message-accounting", "run", ERROR, "at quiescence every published message must have been delivered",
        trace_checks.check_message_accounting,
    ),
    "run-task-bookkeeping": AnalysisCheck(
        "run-task-bookkeeping", "run", ERROR, "per-task attempt/failure/result rows must be self-consistent",
        trace_checks.check_task_bookkeeping,
    ),
    "run-status-ordering": AnalysisCheck(
        "run-status-ordering", "run", ERROR, "the STATUS timeline must be time-ordered with legal state successions",
        trace_checks.check_status_ordering,
    ),
    "run-reduction-accounting": AnalysisCheck(
        "run-reduction-accounting", "run", ERROR,
        "a run cannot fire more reactions than it made match attempts",
        trace_checks.check_reduction_accounting,
    ),
    "plan-task-existence": AnalysisCheck(
        "plan-task-existence", "plan", ERROR, "every task an adaptation plan references must exist in the encoding",
        plan_checks.check_task_existence,
    ),
    "plan-adapt-consumers": AnalysisCheck(
        "plan-adapt-consumers", "plan", ERROR, "every ADAPT marker a plan sends must have a consuming rule in place",
        plan_checks.check_adapt_consumers,
    ),
    "plan-trigger-wiring": AnalysisCheck(
        "plan-trigger-wiring", "plan", ERROR, "every trigger task must be wired for both execution modes",
        plan_checks.check_trigger_wiring,
    ),
    "plan-replay-parity": AnalysisCheck(
        "plan-replay-parity", "plan", ERROR, "log-replay recovery must rebuild the exact adapted state",
        plan_checks.check_replay_parity,
    ),
    "obs-span-unclosed": AnalysisCheck(
        "obs-span-unclosed", "obs", ERROR,
        "every span must be closed and reduction spans must nest inside stimulus spans",
        obs_checks.check_span_unclosed,
    ),
    "obs-broker-accounting": AnalysisCheck(
        "obs-broker-accounting", "obs", ERROR, "broker publish/deliver events must match the transport's counters",
        obs_checks.check_broker_accounting,
    ),
}


def available_checks() -> tuple[AnalysisCheck, ...]:
    """Every check of the catalog, in table order."""
    return tuple(CHECKS.values())


def checks_for(kind: str) -> tuple[AnalysisCheck, ...]:
    """Every check of one kind, in table order."""
    return tuple(check for check in CHECKS.values() if check.kind == kind)
