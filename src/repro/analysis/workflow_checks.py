"""Static checks over workflow structure and serialisation.

These checks inspect a :class:`~repro.workflow.dag.Workflow` (and, when
available, the raw JSON document it was parsed from) without enacting it:
cycles, orphan tasks, unreachable tasks, duplicate names in the source
document, and JSON-safety of every task's inputs/metadata — reusing the
canonicaliser of :mod:`repro.workflow.json_format` so ``ginflow lint`` and
``ginflow validate`` agree by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.workflow.dag import Workflow
from repro.workflow.errors import JSONFormatError, WorkflowValidationError
from repro.workflow.json_format import workflow_from_dict, workflow_to_dict

from .findings import Finding, Severity

__all__ = ["WorkflowContext"]


@dataclass
class WorkflowContext:
    """The unit of workflow analysis.

    Attributes
    ----------
    workflow:
        The workflow under analysis.  It need not be valid — lint fixtures
        and lenient document loading deliberately produce cyclic graphs.
    document:
        The raw parsed JSON document the workflow came from, when linting a
        file; document-level checks (duplicate task names) need it because
        :class:`Workflow` itself rejects duplicates at construction time.
    label:
        Where the workflow came from (``"workflow 'montage'"``).
    """

    workflow: Workflow
    document: Mapping[str, Any] | None = None
    label: str = ""


def check_cycle(context: WorkflowContext) -> Iterator[Finding]:
    """A dependency cycle deadlocks enactment: no task in it can ever start."""
    cycle = context.workflow.find_cycle()
    if cycle is None:
        return
    rendered = " -> ".join(cycle + cycle[:1])
    yield Finding(
        check="workflow-cycle",
        severity=Severity.ERROR,
        subject=cycle[0],
        message=f"workflow {context.workflow.name!r} contains a cycle: {rendered}",
        fix_hint="remove one dependency of the cycle so every task has a start order",
        location=context.label,
    )


def check_orphans(context: WorkflowContext) -> Iterator[Finding]:
    """An orphan task (no dependencies either way) usually means a missing edge."""
    workflow = context.workflow
    if len(workflow) <= 1:
        return
    for name in workflow.task_names():
        if not workflow.predecessors(name) and not workflow.successors(name):
            yield Finding(
                check="workflow-orphan",
                severity=Severity.WARNING,
                subject=name,
                message=f"task {name!r} has no dependency in either direction",
                fix_hint="connect the task to the DAG or remove it",
                location=context.label,
            )


def check_reachability(context: WorkflowContext) -> Iterator[Finding]:
    """Tasks unreachable from every entry task can never receive their inputs.

    In an acyclic workflow every task is trivially reachable; this fires on
    cyclic graphs, where a cycle component has no entry point — including
    the case where *no* exit task is reachable, i.e. the workflow can never
    terminate.
    """
    workflow = context.workflow
    if len(workflow) == 0:
        return
    entries = workflow.entry_tasks()
    reachable: set[str] = set()
    frontier = list(entries)
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        frontier.extend(workflow.successors(name))
    unreachable = [name for name in workflow.task_names() if name not in reachable]
    if unreachable:
        rendered = ", ".join(repr(name) for name in unreachable)
        yield Finding(
            check="workflow-unreachable",
            severity=Severity.ERROR,
            subject=unreachable[0],
            message=f"{len(unreachable)} task(s) unreachable from any entry task: {rendered}",
            fix_hint="break the cycle holding them, or give them an entry path",
            location=context.label,
        )
    exits = workflow.exit_tasks()
    if not exits or not any(name in reachable for name in exits):
        yield Finding(
            check="workflow-unreachable",
            severity=Severity.ERROR,
            subject=workflow.name,
            message=f"workflow {workflow.name!r} has no reachable exit task; "
            "it can never terminate",
            fix_hint="ensure at least one task without successors is reachable "
            "from an entry task",
            location=context.label,
        )


def check_duplicate_tasks(context: WorkflowContext) -> Iterator[Finding]:
    """Duplicate names in a JSON document silently shadow each other's edges.

    The :class:`Workflow` constructor rejects duplicates outright, so this
    check reads the *raw document*: it reports the collision as a finding
    (with the offending name) instead of an opaque parse error.
    """
    document = context.document
    if document is None:
        return
    tasks = document.get("tasks")
    if not isinstance(tasks, list):
        return
    names = Counter(
        str(entry.get("name"))
        for entry in tasks
        if isinstance(entry, Mapping) and entry.get("name") is not None
    )
    for name, count in names.items():
        if count > 1:
            yield Finding(
                check="workflow-duplicate-task",
                severity=Severity.ERROR,
                subject=name,
                message=f"task name {name!r} appears {count} times in the document",
                fix_hint="rename the duplicates; task names are identity in the DAG",
                location=context.label,
            )


def check_json_safety(context: WorkflowContext) -> Iterator[Finding]:
    """Un-serialisable inputs/metadata break sweeps, artifacts and validate.

    Reuses the canonicaliser of :func:`workflow_to_dict` (the single
    implementation ``ginflow validate`` also delegates to): a value with no
    canonical JSON form is reported here with the offending task named,
    instead of raising deep inside ``json.dumps`` at report time.
    """
    workflow = context.workflow
    try:
        document = workflow_to_dict(workflow)
    except JSONFormatError as exc:
        yield Finding(
            check="workflow-json-safety",
            severity=Severity.ERROR,
            subject=workflow.name,
            message=str(exc),
            fix_hint="use JSON-representable task inputs/metadata "
            "(numbers, strings, bools, lists, dicts)",
            location=context.label,
        )
        return
    if not workflow.is_valid():
        return  # the round-trip needs a parseable (acyclic, non-empty) workflow
    try:
        if workflow_to_dict(workflow_from_dict(document)) != document:
            yield Finding(
                check="workflow-json-safety",
                severity=Severity.ERROR,
                subject=workflow.name,
                message=f"workflow {workflow.name!r}: JSON round-trip is not lossless",
                fix_hint="report this as a bug in the serialiser, or normalise the "
                "offending task values",
                location=context.label,
            )
    except (JSONFormatError, WorkflowValidationError) as exc:
        yield Finding(
            check="workflow-json-safety",
            severity=Severity.ERROR,
            subject=workflow.name,
            message=f"serialised document does not parse back: {exc}",
            fix_hint="normalise the offending task values to plain JSON types",
            location=context.label,
        )
