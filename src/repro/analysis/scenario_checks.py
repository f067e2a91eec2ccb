"""Static checks over the catalog's scenarios and their declared profiles.

A scenario declares a cost profile (stage name → duration range) and a
failure profile (metadata merged into every task); the generator is supposed
to stamp exactly that onto the workflow it builds.  These checks hold the
declaration to account: every declared stage must actually appear in the
generated workflow, every stamped stage must be declared, the failure
profile must reach every task, and the generator must be deterministic for
a fixed seed (the contract sweeps and benchmarks rely on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.scenarios.registry import Scenario
from repro.workflow.dag import Workflow
from repro.workflow.json_format import workflow_to_dict

from .findings import Finding, Severity

__all__ = ["ScenarioContext"]

#: Metadata keys carrying the stage/class name stamped by generators.
_STAGE_KEYS = ("stage", "cost_class")


@dataclass
class ScenarioContext:
    """The unit of scenario analysis: a scenario plus one build.

    Attributes
    ----------
    scenario:
        The :class:`~repro.scenarios.registry.Scenario` (a catalog row).
    workflow:
        One workflow built from it (with ``params``).
    params:
        The parameters the build used (empty = the factory defaults).
    label:
        Display location (``"scenario 'epigenomics'"``).
    """

    scenario: Scenario
    workflow: Workflow
    params: dict[str, Any] = field(default_factory=dict)
    label: str = ""


#: Sentinel distinguishing "metadata key absent" from a stored ``None``.
_MISSING = object()


def _stamped_stages(workflow: Workflow) -> set[str]:
    stages: set[str] = set()
    for task in workflow:
        for key in _STAGE_KEYS:
            value = task.metadata.get(key)
            if isinstance(value, str):
                stages.add(value)
    return stages


def check_cost_profile(context: ScenarioContext) -> Iterator[Finding]:
    """Stage names referenced by the cost profile must exist in the workflow.

    A declared stage no task carries means the declaration (what
    ``ginflow scenarios`` shows, what cost models consume) has drifted from
    the generator; a stamped stage the profile does not declare means the
    task's duration was drawn from nowhere.
    """
    declared = set(context.scenario.cost_profile)
    if not declared:
        return
    stamped = _stamped_stages(context.workflow)
    for stage in sorted(declared - stamped):
        yield Finding(
            check="scenario-cost-profile",
            severity=Severity.ERROR,
            subject=stage,
            message=f"scenario {context.scenario.name!r} declares cost-profile stage "
            f"{stage!r}, but no generated task carries it",
            fix_hint="drop the stage from the cost profile or make the generator "
            "emit tasks for it",
            location=context.label,
        )
    for stage in sorted(stamped - declared):
        yield Finding(
            check="scenario-cost-profile",
            severity=Severity.ERROR,
            subject=stage,
            message=f"scenario {context.scenario.name!r} stamps stage {stage!r} on "
            "tasks, but its cost profile does not declare it",
            fix_hint="declare the stage (with its duration range) in the scenario's "
            "cost_profile",
            location=context.label,
        )


def check_failure_profile(context: ScenarioContext) -> Iterator[Finding]:
    """Every task must carry the scenario's declared failure-profile metadata.

    Recovery semantics (idempotency, suggested injection probability) are
    consumed per task at enactment time; a task the profile never reached
    silently falls back to defaults.
    """
    profile = dict(context.scenario.failure_profile)
    if not profile:
        return
    for key, value in profile.items():
        missing = [
            task.name for task in context.workflow if task.metadata.get(key, _MISSING) is _MISSING
        ]
        if missing:
            shown = ", ".join(repr(name) for name in missing[:5])
            suffix = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
            yield Finding(
                check="scenario-failure-profile",
                severity=Severity.ERROR,
                subject=key,
                message=f"scenario {context.scenario.name!r} declares failure-profile "
                f"key {key!r}={value!r}, but {len(missing)} task(s) lack it: "
                f"{shown}{suffix}",
                fix_hint="merge the failure profile into every task's metadata "
                "(the catalog's _Builder does this automatically)",
                location=context.label,
            )


def check_determinism(context: ScenarioContext) -> Iterator[Finding]:
    """Scenario factories must be seed-deterministic (the sweep/bench contract).

    Rebuilds the workflow with the same parameters and compares the
    serialised documents; any drift (unseeded randomness, iteration over an
    unordered set...) makes sweeps unrepeatable.
    """
    try:
        first = workflow_to_dict(context.workflow)
        second = workflow_to_dict(context.scenario.build(**context.params))
    except Exception:  # noqa: BLE001 - build/serialisation failures belong to other checks
        return
    if first != second:
        yield Finding(
            check="scenario-determinism",
            severity=Severity.ERROR,
            subject=context.scenario.name,
            message=f"scenario {context.scenario.name!r} generated two different "
            "workflows for identical parameters",
            fix_hint="derive all randomness from the seed parameter and iterate "
            "over ordered collections only",
            location=context.label,
        )
