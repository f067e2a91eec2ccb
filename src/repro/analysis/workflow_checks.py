"""Static checks over a valid workflow's structure and serialisation.

These checks inspect a :class:`~repro.workflow.dag.Workflow` that
:meth:`~repro.workflow.dag.Workflow.validate` accepted, without enacting
it: orphan tasks, and JSON-safety of every task's inputs/metadata —
reusing the canonicaliser of :mod:`repro.workflow.json_format` so
``ginflow lint`` and ``ginflow validate`` agree by construction.  What
makes a workflow invalid (a duplicate task name, an unknown or
self-dependency, a cycle, a broken adaptation) is refused by the
constructor, the loader or ``validate`` itself, and reported by the driver
as that refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.workflow.dag import Workflow
from repro.workflow.errors import JSONFormatError, WorkflowError
from repro.workflow.json_format import workflow_from_dict, workflow_to_dict

from .findings import Finding, Severity

__all__ = ["WorkflowContext"]


@dataclass
class WorkflowContext:
    """The unit of workflow analysis.

    Attributes
    ----------
    workflow:
        The workflow under analysis, valid.
    label:
        Where the workflow came from (``"workflow 'montage'"``).
    """

    workflow: Workflow
    label: str = ""


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
    except WorkflowError as exc:
        yield Finding(
            check="workflow-json-safety",
            severity=Severity.ERROR,
            subject=workflow.name,
            message=f"serialised document does not parse back: {exc}",
            fix_hint="normalise the offending task values to plain JSON types",
            location=context.label,
        )
