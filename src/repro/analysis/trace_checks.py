"""Dynamic checks over reduction traces and run reports.

Where :mod:`repro.analysis.rule_checks` inspects rules *before* anything
runs, the checks here consume the artifacts a run already produces — the
per-rule fire counters of a :class:`~repro.hocl.engine.ReductionReport` and
the task rows, message counters and timeline of a
:class:`~repro.runtime.results.RunReport` — and flag the failure class only
execution can reveal: a registered rule that never fired over a whole sweep,
a message published but never delivered, task bookkeeping that contradicts
itself, a STATUS timeline that goes backwards.

Two scopes exist at this layer:

* :class:`TraceScope` (kind ``"trace"``) — one reduction trace: registered
  rule names vs the fire counters of a (possibly merged) report;
* :class:`RunScope` (kind ``"run"``) — one enactment: the
  :class:`~repro.runtime.results.RunReport` a runtime assembled.

Every check degrades gracefully when its data is absent (e.g. the
centralized runtime reports no broker counters): missing data means *no
finding*, never a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.hocl.engine import ReductionReport
from repro.hocl.rules import Rule
from repro.hoclflow import keywords as kw
from repro.runtime.results import RunReport

from .findings import Finding, Severity
from .registry import register_check

__all__ = ["TraceScope", "RunScope", "conditional_rule_names"]

#: Marker symbols whose presence in a rule's patterns makes the rule
#: *conditional*: it only fires on failure/adaptation paths, so a clean run
#: legitimately never exercises it.
_CONDITIONAL_MARKERS = frozenset({kw.ADAPT, kw.ERROR, kw.TRIGGER})


def conditional_rule_names(rules: Iterable[Rule]) -> frozenset[str]:
    """Names of rules that structurally wait for a failure/adaptation marker.

    A rule whose patterns match the ``ADAPT``, ``ERROR`` or ``TRIGGER``
    symbol (or a tuple it heads), at any depth, can only fire on the failure
    path; a run where every service succeeded never exercises it, which is
    expected — the coverage check downgrades such never-fired rules to
    :attr:`Severity.INFO`.
    """
    return frozenset(
        rule.name
        for rule in rules
        if any(kind in ("symbol", "tuple") and name in _CONDITIONAL_MARKERS for kind, name in rule.summary.matched())
    )


@dataclass
class TraceScope:
    """The unit of trace analysis: one reduction trace plus its rule universe.

    Attributes
    ----------
    label:
        Where the trace comes from (``"run 'epigenomics' (simulated)"``).
    report:
        The reduction report — possibly the :meth:`ReductionReport.merge`
        of every reduction of a whole run or sweep.
    registered:
        Names of every rule registered in the reduced solution(s); empty
        disables the coverage checks (the trace alone cannot know what
        *could* have fired).
    conditional:
        Registered rules that only fire on failure/adaptation paths (see
        :func:`conditional_rule_names`); never-fired members are reported
        at :attr:`Severity.INFO` instead of :attr:`Severity.ERROR`.
    """

    label: str
    report: ReductionReport
    registered: tuple[str, ...] = ()
    conditional: frozenset[str] = frozenset()


@dataclass
class RunScope:
    """The unit of run analysis: one enactment's :class:`RunReport`.

    Attributes
    ----------
    label:
        Which run this is (``"scenario 'forkjoin:size=20' (asyncio)"``).
    report:
        The report the runtime assembled.
    exit_tasks:
        The workflow's exit tasks, when the caller knows them; enables the
        exit-task terminal-state check.
    """

    label: str
    report: RunReport
    exit_tasks: tuple[str, ...] = ()


# ------------------------------------------------------------- trace checks
@register_check(
    "trace-rule-never-fired",
    kind="trace",
    severity=Severity.ERROR,
    description="every registered rule should fire at least once across the trace",
)
def check_rule_never_fired(scope: TraceScope) -> Iterator[Finding]:
    """A registered rule that never fired is dead weight or a latent hang.

    The dynamic complement of ``rule-dead-index-key``: the static check
    proves a rule *cannot* fire, this one observes that it *did not* — over
    a whole run or sweep, where every rule was expected to participate.
    Rules gated on failure/adaptation markers are reported as info (a clean
    run never exercises them).
    """
    fires = scope.report.rule_fires
    for name in scope.registered:
        if fires.get(name, 0) > 0:
            continue
        if name in scope.conditional:
            yield Finding(
                check="trace-rule-never-fired",
                severity=Severity.INFO,
                subject=name,
                message=f"conditional rule {name!r} never fired (no failure/adaptation "
                "on this trace)",
                fix_hint="expected on clean runs; audit a chaos run to exercise it",
                location=scope.label,
            )
        else:
            yield Finding(
                check="trace-rule-never-fired",
                severity=Severity.ERROR,
                subject=name,
                message=f"rule {name!r} is registered but never fired across the trace",
                fix_hint="check the rule's patterns against the states the run actually "
                "reaches, or remove the rule",
                location=scope.label,
            )


@register_check(
    "trace-unknown-rule",
    kind="trace",
    severity=Severity.ERROR,
    description="every fired rule must be a registered one",
)
def check_unknown_rule(scope: TraceScope) -> Iterator[Finding]:
    """A fire counter for a rule nobody registered means the trace is corrupt.

    Either the report was tampered with, or two different rule sets were
    merged into one trace — both make every other conclusion unreliable.
    """
    if not scope.registered:
        return
    known = set(scope.registered)
    for name in scope.report.rule_fires:
        if name not in known:
            yield Finding(
                check="trace-unknown-rule",
                severity=Severity.ERROR,
                subject=name,
                message=f"trace records {scope.report.rule_fires[name]} firing(s) of "
                f"{name!r}, which is not among the registered rules",
                fix_hint="merge traces only with reports from the same rule universe",
                location=scope.label,
            )


@register_check(
    "trace-non-inert",
    kind="trace",
    severity=Severity.ERROR,
    description="a finished reduction must have reached inertness",
)
def check_non_inert(scope: TraceScope) -> Iterator[Finding]:
    """``inert=False`` means the step limit was hit — a diverging rule set."""
    if not scope.report.inert:
        yield Finding(
            check="trace-non-inert",
            severity=Severity.ERROR,
            subject=scope.label or "reduction",
            message="reduction stopped at the step limit without reaching inertness",
            fix_hint="look for a rule pair that keeps producing each other's input "
            "(or raise max_steps if the workload is legitimately that large)",
            location=scope.label,
        )


@register_check(
    "trace-accounting",
    kind="trace",
    severity=Severity.ERROR,
    description="fire counters, history and the reactions total must agree",
)
def check_trace_accounting(scope: TraceScope) -> Iterator[Finding]:
    """The three redundant reaction counts must tell the same story.

    ``sum(rule_fires)``, ``len(history)`` and ``reactions`` are maintained
    by the same code path; disagreement means the report was tampered with
    or merged incorrectly.
    """
    report = scope.report
    fired_total = sum(report.rule_fires.values())
    if report.rule_fires and fired_total != report.reactions:
        yield Finding(
            check="trace-accounting",
            severity=Severity.ERROR,
            subject=scope.label or "reduction",
            message=f"per-rule fire counters sum to {fired_total} but the report "
            f"records {report.reactions} reactions",
            fix_hint="merge reports only via ReductionReport.merge",
            location=scope.label,
        )
    if report.history and len(report.history) != report.reactions:
        yield Finding(
            check="trace-accounting",
            severity=Severity.ERROR,
            subject=scope.label or "reduction",
            message=f"history records {len(report.history)} reactions but the report "
            f"counts {report.reactions}",
            fix_hint="merge reports only via ReductionReport.merge",
            location=scope.label,
        )


# --------------------------------------------------------------- run checks
#: Legal task-state successions, as driven by the agent lifecycle
#: (idle → ready → invoking → completed/failed; a failed task may be retried
#: or recovered).  Non-state timeline events ("failure", "recovery") reset
#: the per-task machine — a recovered agent restarts its lifecycle.
_STATE_SUCCESSORS = {
    "idle": {"ready", "invoking", "completed", "failed"},
    "ready": {"invoking", "completed", "failed"},
    "invoking": {"completed", "failed"},
    "failed": {"ready", "invoking", "completed"},
    "completed": set(),
}


@register_check(
    "run-message-accounting",
    kind="run",
    severity=Severity.ERROR,
    description="at quiescence every published message must have been delivered",
)
def check_message_accounting(scope: RunScope) -> Iterator[Finding]:
    """published != delivered at the end of a run means messages were lost.

    Every runtime quiesces before assembling its report, so the transport's
    two counters must agree; a shortfall is a lost message (an agent will
    wait forever for it on a rerun), an excess is double delivery.  Reports
    without broker counters (the centralized runtime) are skipped.
    """
    report = scope.report
    published, delivered = report.messages_published, report.messages_delivered
    if published == 0 and delivered == 0:
        return
    if published != delivered:
        yield Finding(
            check="run-message-accounting",
            severity=Severity.ERROR,
            subject=report.broker or "broker",
            message=f"{published} message(s) published but {delivered} delivered "
            "at quiescence",
            fix_hint="a subscriber is missing (lost message) or a message was "
            "delivered twice; check the transport's subscription wiring",
            location=scope.label,
        )


@register_check(
    "run-task-bookkeeping",
    kind="run",
    severity=Severity.ERROR,
    description="per-task attempt/failure/result rows must be self-consistent",
)
def check_task_bookkeeping(scope: RunScope) -> Iterator[Finding]:
    """Each TaskOutcome row carries redundant fields that must agree."""
    for name, outcome in scope.report.tasks.items():
        if outcome.failures > outcome.attempts:
            yield Finding(
                check="run-task-bookkeeping",
                severity=Severity.ERROR,
                subject=name,
                message=f"task {name!r} records {outcome.failures} failure(s) "
                f"but only {outcome.attempts} attempt(s)",
                fix_hint="every failure row must correspond to one attempt",
                location=scope.label,
            )
        if outcome.state == "completed" and outcome.result is None:
            yield Finding(
                check="run-task-bookkeeping",
                severity=Severity.ERROR,
                subject=name,
                message=f"task {name!r} is 'completed' but stores no result",
                fix_hint="a completed task must have stored its RES value",
                location=scope.label,
            )
        if outcome.state == "failed" and not outcome.error:
            yield Finding(
                check="run-task-bookkeeping",
                severity=Severity.ERROR,
                subject=name,
                message=f"task {name!r} is 'failed' but its error flag is unset",
                fix_hint="a failed invocation must leave ERROR in the task's RES",
                location=scope.label,
            )
        if (
            outcome.started_at is not None
            and outcome.finished_at is not None
            and outcome.finished_at < outcome.started_at
        ):
            yield Finding(
                check="run-task-bookkeeping",
                severity=Severity.ERROR,
                subject=name,
                message=f"task {name!r} finished at {outcome.finished_at} before it "
                f"started at {outcome.started_at}",
                fix_hint="started_at/finished_at must come from the same clock",
                location=scope.label,
            )


@register_check(
    "run-exit-terminal",
    kind="run",
    severity=Severity.ERROR,
    description="a succeeded run must hold a result for every exit task (and never time out)",
)
def check_exit_terminal(scope: RunScope) -> Iterator[Finding]:
    """Success is defined by the exit tasks: all present, all with results.

    Also enforces the documented contract that a timed-out run never reports
    ``succeeded=True``.
    """
    report = scope.report
    if report.succeeded and report.timed_out:
        yield Finding(
            check="run-exit-terminal",
            severity=Severity.ERROR,
            subject="run",
            message="report claims succeeded=True and timed_out=True at once",
            fix_hint="a timed-out run never reports succeeded=True (results contract)",
            location=scope.label,
        )
    if not report.succeeded:
        return
    for exit_task in scope.exit_tasks:
        outcome = report.tasks.get(exit_task)
        if outcome is None or outcome.result is None:
            yield Finding(
                check="run-exit-terminal",
                severity=Severity.ERROR,
                subject=exit_task,
                message=f"run succeeded but exit task {exit_task!r} holds no result",
                fix_hint="succeeded=True requires every exit task to have completed",
                location=scope.label,
            )


@register_check(
    "run-status-ordering",
    kind="run",
    severity=Severity.ERROR,
    description="the STATUS timeline must be time-ordered with legal state successions",
)
def check_status_ordering(scope: RunScope) -> Iterator[Finding]:
    """The coordinator's timeline is the run's observable history.

    Timestamps must be non-decreasing, and each task's state events must
    follow the agent lifecycle (a task cannot complete before invoking,
    nor leave 'completed').  "failure"/"recovery" events reset the per-task
    machine: a recovered agent legitimately restarts its lifecycle.
    """
    previous_time: float | None = None
    last_state: dict[str, str] = {}
    for event in scope.report.timeline:
        if previous_time is not None and event.time < previous_time:
            yield Finding(
                check="run-status-ordering",
                severity=Severity.ERROR,
                subject=event.task,
                message=f"timeline goes backwards: event {event.event!r} at "
                f"{event.time} after an event at {previous_time}",
                fix_hint="timeline events must be appended in delivery order",
                location=scope.label,
            )
        previous_time = event.time
        if event.event not in _STATE_SUCCESSORS:
            # "failure"/"recovery" (and any custom marker) reset the machine.
            last_state.pop(event.task, None)
            continue
        before = last_state.get(event.task)
        if before is not None and event.event not in _STATE_SUCCESSORS[before]:
            yield Finding(
                check="run-status-ordering",
                severity=Severity.ERROR,
                subject=event.task,
                message=f"task {event.task!r} moved {before!r} -> {event.event!r}, "
                "which the agent lifecycle does not allow",
                fix_hint="states follow idle -> ready -> invoking -> completed/failed",
                location=scope.label,
            )
        last_state[event.task] = event.event


@register_check(
    "run-reduction-accounting",
    kind="run",
    severity=Severity.ERROR,
    description="the run's chemistry aggregates must agree with the per-rule counters",
)
def check_reduction_accounting(scope: RunScope) -> Iterator[Finding]:
    """The run-level reaction totals are redundant with the fire counters."""
    report = scope.report
    fires = report.extra.get("rule_fires")
    if isinstance(fires, dict) and fires:
        fired_total = sum(fires.values())
        if fired_total != report.reduction_reactions:
            yield Finding(
                check="run-reduction-accounting",
                severity=Severity.ERROR,
                subject="reduction",
                message=f"per-rule fire counters sum to {fired_total} but the run "
                f"records {report.reduction_reactions} reactions",
                fix_hint="both aggregates come from the same ReductionReports; "
                "a mismatch means the report was edited",
                location=scope.label,
            )
    if 0 < report.reduction_match_attempts < report.reduction_reactions:
        yield Finding(
            check="run-reduction-accounting",
            severity=Severity.ERROR,
            subject="reduction",
            message=f"{report.reduction_reactions} reactions out of only "
            f"{report.reduction_match_attempts} match attempts",
            fix_hint="every reaction requires at least one successful match attempt",
            location=scope.label,
        )
