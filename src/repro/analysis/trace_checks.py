"""Dynamic checks over reduction traces and run reports.

Where :mod:`repro.analysis.rule_checks` inspects rules *before* anything
runs, the checks here consume the artifacts a run already produces — the
per-rule fire counters and the task rows, message counters and timeline of a
:class:`~repro.runtime.results.RunReport` — and flag the failure class only
execution can reveal: a registered rule that never fired over a whole sweep,
a message published but never delivered, task bookkeeping that contradicts
itself, a STATUS timeline that goes backwards.

Two scopes exist at this layer:

* :class:`TraceScope` (kind ``"trace"``) — registered rule names vs the
  fire counters of one run or of a whole sweep;
* :class:`RunScope` (kind ``"run"``) — one enactment: the
  :class:`~repro.runtime.results.RunReport` a runtime assembled.

Every check degrades gracefully when its data is absent (e.g. the
centralized runtime reports no broker counters): missing data means *no
finding*, never a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.hocl.rules import Rule
from repro.hoclflow import keywords as kw
from repro.runtime.results import RunReport

from .findings import Finding, Severity

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
    """The unit of trace analysis: fire counters plus their rule universe.

    Attributes
    ----------
    label:
        Where the counters come from (``"run 'epigenomics' (simulated)"``).
    fires:
        Firings per rule name — of one run, or summed over a whole sweep.
    registered:
        Names of every rule registered in the reduced solution(s); empty
        disables the coverage checks (the counters alone cannot know what
        *could* have fired).
    conditional:
        Registered rules that only fire on failure/adaptation paths (see
        :func:`conditional_rule_names`); never-fired members are reported
        at :attr:`Severity.INFO` instead of :attr:`Severity.ERROR`.
    """

    label: str
    fires: Mapping[str, int]
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
    """

    label: str
    report: RunReport


# ------------------------------------------------------------- trace checks
def check_rule_never_fired(scope: TraceScope) -> Iterator[Finding]:
    """A registered rule that never fired is dead weight or a latent hang.

    The dynamic complement of ``rule-dead-index-key``: the static check
    proves a rule *cannot* fire, this one observes that it *did not* — over
    a whole run or sweep, where every rule was expected to participate.
    Rules gated on failure/adaptation markers are reported as info (a clean
    run never exercises them).
    """
    fires = scope.fires
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


def check_unknown_rule(scope: TraceScope) -> Iterator[Finding]:
    """A fire counter for a rule nobody registered means the trace is corrupt.

    Either the report was tampered with, or two different rule sets were
    merged into one trace — both make every other conclusion unreliable.
    """
    if not scope.registered:
        return
    known = set(scope.registered)
    for name, count in scope.fires.items():
        if name not in known:
            yield Finding(
                check="trace-unknown-rule",
                severity=Severity.ERROR,
                subject=name,
                message=f"trace records {count} firing(s) of "
                f"{name!r}, which is not among the registered rules",
                fix_hint="sum fire counters only over runs of the same rule universe",
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


def check_reduction_accounting(scope: RunScope) -> Iterator[Finding]:
    """Every reaction needs a match attempt that found it."""
    report = scope.report
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
