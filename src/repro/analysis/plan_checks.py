"""Checks over adaptation plans against their workflow encoding.

An adaptation plan only ever runs on the failure path, so a mis-wired plan
is invisible until the one run where it matters — the trigger fires, the
``ADAPT`` markers go out, and nothing happens because the consuming rule was
never placed (or was placed on a task that does not exist).  The checks here
verify the whole marker supply chain *without* needing a failure to occur:

* every task the plan references exists in the encoding
  (``plan-task-existence``);
* every affected task owns exactly the adaptation rules its roles imply,
  and each of those rules structurally consumes an ``ADAPT`` marker
  (``plan-adapt-consumers``);
* every trigger task is wired both ways — the decentralised trigger plan
  *and* the centralised global ``trigger_adapt`` rule
  (``plan-trigger-wiring``);
* bringing a fresh agent to the adapted state through the log-replay
  recovery path (Section IV-B) reaches exactly the state of a live agent
  (``plan-replay-parity``).

Checks receive a :class:`PlanScope`: one resolved
:class:`~repro.hoclflow.adaptation.AdaptationPlan` plus the
:class:`~repro.hoclflow.translator.WorkflowEncoding` it was compiled into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.hocl.rules import Rule
from repro.hoclflow import keywords as kw
from repro.hoclflow.adaptation import AdaptationPlan
from repro.hoclflow.translator import WorkflowEncoding

from .findings import Finding, Severity
from .registry import register_check

__all__ = ["PlanScope"]


@dataclass
class PlanScope:
    """The unit of plan analysis: one resolved plan plus its encoding.

    Attributes
    ----------
    label:
        Which plan this is (``"adaptation 'reroute'"``).
    plan:
        The resolved adaptation plan.
    encoding:
        The workflow encoding the plan's rules were compiled into.
    """

    label: str
    plan: AdaptationPlan
    encoding: WorkflowEncoding


def _consumes_adapt(rule: Rule) -> bool:
    """Whether ``rule``'s patterns structurally consume an ``ADAPT`` marker, at any depth."""
    return ("symbol", kw.ADAPT) in rule.summary.matched()


def _referenced_tasks(plan: AdaptationPlan) -> Iterator[tuple[str, str]]:
    """Every ``(role, task)`` reference the plan makes to the encoding."""
    for task in plan.replaced:
        yield "replaced task", task
    for task in plan.trigger_tasks:
        yield "trigger task", task
    for task in plan.sources:
        yield "region source", task
    yield "destination", plan.destination
    for task in plan.entry_tasks:
        yield "replacement entry", task
    for task in plan.exit_tasks:
        yield "replacement exit", task
    for source, entries in plan.added_destinations.items():
        yield "ADDDST source", source
        for entry in entries:
            yield "ADDDST target", entry


# ---------------------------------------------------------------- the checks
@register_check(
    "plan-task-existence",
    kind="plan",
    severity=Severity.ERROR,
    description="every task an adaptation plan references must exist in the encoding",
)
def check_task_existence(scope: PlanScope) -> Iterator[Finding]:
    """A plan naming a ghost task silently does nothing when it triggers.

    The ``ADAPT`` marker sent to a task that was never deployed is simply
    lost, and the re-wiring the plan promises never happens — the run then
    hangs waiting for a result no one will send.
    """
    known = set(scope.encoding.tasks)
    plan_name = scope.plan.spec.name
    seen: set[tuple[str, str]] = set()
    for role, task in _referenced_tasks(scope.plan):
        if task in known or (role, task) in seen:
            continue
        seen.add((role, task))
        yield Finding(
            check="plan-task-existence",
            severity=Severity.ERROR,
            subject=task,
            message=f"adaptation {plan_name!r} names {task!r} as its {role}, but no "
            "such task is encoded",
            fix_hint="fix the task name in the adaptation spec (or add the task to "
            "the workflow / replacement sub-workflow)",
            location=scope.label,
        )


@register_check(
    "plan-adapt-consumers",
    kind="plan",
    severity=Severity.ERROR,
    description="every ADAPT marker a plan sends must have a consuming rule in place",
)
def check_adapt_consumers(scope: PlanScope) -> Iterator[Finding]:
    """Each role of an affected task implies one ADAPT-consuming rule.

    The trigger sends ``adapt_marker_counts()[task]`` markers to each
    affected task; each marker must be consumed by exactly one one-shot rule
    (``add_dst`` per source role, ``mv_src`` for the destination,
    ``activate`` per entry role).  A missing rule leaves a marker stranded
    in the local solution; a rule that does not pattern-match ``ADAPT``
    never fires at all.
    """
    plan = scope.plan
    plan_name = plan.spec.name
    tasks = scope.encoding.tasks
    expected: dict[str, list[str]] = {}
    for source in plan.sources:
        expected.setdefault(source, []).append(f"add_dst:{plan_name}:{source}")
    expected.setdefault(plan.destination, []).append(f"mv_src:{plan_name}:{plan.destination}")
    for entry in plan.entry_tasks:
        expected.setdefault(entry, []).append(f"activate:{plan_name}:{entry}")

    marker_counts = plan.adapt_marker_counts()
    for task, rule_names in expected.items():
        encoding = tasks.get(task)
        if encoding is None:
            continue  # plan-task-existence already reports the ghost
        local = {rule.name: rule for rule in encoding.local_rules}
        for rule_name in rule_names:
            rule = local.get(rule_name)
            if rule is None:
                yield Finding(
                    check="plan-adapt-consumers",
                    severity=Severity.ERROR,
                    subject=task,
                    message=f"task {task!r} should own rule {rule_name!r} for "
                    f"adaptation {plan_name!r}, but its sub-solution does not "
                    "contain it",
                    fix_hint="re-encode the workflow through encode_workflow (the "
                    "translator places the adaptation rules)",
                    location=scope.label,
                )
            elif not _consumes_adapt(rule):
                yield Finding(
                    check="plan-adapt-consumers",
                    severity=Severity.ERROR,
                    subject=task,
                    message=f"rule {rule_name!r} on task {task!r} does not "
                    "pattern-match the ADAPT marker, so the trigger cannot "
                    "activate it",
                    fix_hint="adaptation rules must consume one ADAPT symbol",
                    location=scope.label,
                )
        if len(rule_names) != marker_counts.get(task, 0):
            yield Finding(
                check="plan-adapt-consumers",
                severity=Severity.ERROR,
                subject=task,
                message=f"task {task!r} will receive {marker_counts.get(task, 0)} "
                f"ADAPT marker(s) from {plan_name!r} but owns "
                f"{len(rule_names)} consuming role rule(s)",
                fix_hint="marker counts and role rules both derive from the plan's "
                "source/destination/entry lists; the plan was edited inconsistently",
                location=scope.label,
            )
    for entry in plan.entry_tasks:
        encoding = tasks.get(entry)
        if encoding is not None and not encoding.has_trigger_placeholder:
            yield Finding(
                check="plan-adapt-consumers",
                severity=Severity.ERROR,
                subject=entry,
                message=f"replacement entry {entry!r} has no TRIGGER placeholder in "
                "its SRC, so it would start before the adaptation fires (and its "
                f"activate rule for {plan_name!r} could never match)",
                fix_hint="replacement entry tasks must be encoded with the TRIGGER "
                "placeholder (has_trigger_placeholder=True)",
                location=scope.label,
            )


@register_check(
    "plan-trigger-wiring",
    kind="plan",
    severity=Severity.ERROR,
    description="every trigger task must be wired for both execution modes",
)
def check_trigger_wiring(scope: PlanScope) -> Iterator[Finding]:
    """The trigger fires through two different mechanisms, one per mode.

    Decentralised runs need the plan listed in the trigger task's
    ``trigger_plans`` (the agent's local ``trigger_adapt`` rule is built
    from it); centralised runs need the global ``trigger_adapt`` rule.  A
    missing wire means the adaptation silently never triggers in that mode.
    """
    plan = scope.plan
    plan_name = plan.spec.name
    global_rules = {rule.name for rule in scope.encoding.global_rules}
    for trigger in plan.trigger_tasks:
        encoding = scope.encoding.tasks.get(trigger)
        if encoding is None:
            continue  # plan-task-existence already reports the ghost
        if not any(p.spec.name == plan_name for p in encoding.trigger_plans):
            yield Finding(
                check="plan-trigger-wiring",
                severity=Severity.ERROR,
                subject=trigger,
                message=f"trigger task {trigger!r} does not list adaptation "
                f"{plan_name!r} in its trigger plans; decentralised runs would "
                "never trigger it",
                fix_hint="encode_workflow appends the plan to the trigger task's "
                "trigger_plans — re-encode instead of editing encodings",
                location=scope.label,
            )
        if f"trigger_adapt:{plan_name}:{trigger}" not in global_rules:
            yield Finding(
                check="plan-trigger-wiring",
                severity=Severity.ERROR,
                subject=trigger,
                message=f"no global rule 'trigger_adapt:{plan_name}:{trigger}' "
                "exists; centralised runs would never trigger the adaptation",
                fix_hint="encode_workflow creates one trigger_adapt rule per "
                "(plan, trigger task) pair — re-encode instead of editing encodings",
                location=scope.label,
            )


@register_check(
    "plan-replay-parity",
    kind="plan",
    severity=Severity.ERROR,
    description="log-replay recovery must rebuild the exact adapted state",
)
def check_replay_parity(scope: PlanScope) -> Iterator[Finding]:
    """Replays the plan's ADAPT delivery through the recovery path (IV-B).

    For every affected task, a live agent (boot + ``receive_adapt``) and a
    replayed agent (:func:`~repro.agents.recovery.rebuild_agent` over the
    logged ADAPT message) must end with identical local solutions — the
    paper's recovery correctness argument, exercised with the task's real
    rules.  Divergence means the live delivery path and the replay path
    interpret the ADAPT payload differently.
    """
    from repro.agents.core import AgentCore
    from repro.agents.recovery import rebuild_agent
    from repro.messaging.message import Message, MessageKind, adapt_count, agent_topic

    plan = scope.plan
    marker_counts = plan.adapt_marker_counts()
    for task in plan.affected_tasks():
        encoding = scope.encoding.tasks.get(task)
        if encoding is None:
            continue  # plan-task-existence already reports the ghost
        count = marker_counts.get(task, 1)
        payload = None if count == 1 else count
        live = AgentCore(encoding)
        live.boot()
        live.receive_adapt(adapt_count(payload))
        message = Message(
            topic=agent_topic(task),
            kind=MessageKind.ADAPT,
            sender="audit",
            recipient=task,
            payload=payload,
        )
        replayed, _actions = rebuild_agent(encoding, [message])
        if replayed.solution != live.solution:
            yield Finding(
                check="plan-replay-parity",
                severity=Severity.ERROR,
                subject=task,
                message=f"replaying the ADAPT delivery for task {task!r} (payload "
                f"{payload!r}) rebuilds a different local solution than the live "
                "delivery",
                fix_hint="live deliver and recovery.replay_messages must share the "
                "adapt_count coercion and apply messages in logged order",
                location=scope.label,
            )
