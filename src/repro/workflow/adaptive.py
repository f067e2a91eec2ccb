"""Adaptation specifications — the "alternative scenarios" of Section III-C.

An :class:`AdaptationSpec` describes one on-the-fly rebranching of the
workflow: *if any task of the replaced region reports an error, unplug the
region and plug the replacement sub-workflow in its place*.  At enactment
time the specification is compiled (by :mod:`repro.hoclflow.adaptation`) into
the ``trigger_adapt`` / ``add_dst`` / ``mv_src`` rules of the paper.

The paper restricts which replacements are legal (Fig. 9):

* the replaced region must be a **connected** part of the workflow,
* the replaced region and the replacement must share **one single common
  destination** (otherwise results produced before the failure could keep
  propagating and conflict with the replayed computation),
* the replacement may only communicate with the declared sources of the
  region and with that single destination,
* several adaptations on the same workflow must concern **disjoint** sets of
  tasks.

:meth:`AdaptationSpec.validate` enforces all of these.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.records import Record

from .errors import AdaptationValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dag import Workflow

__all__ = ["AdaptationSpec"]


class AdaptationSpec(Record):
    """One replacement scenario attached to a workflow.

    Attributes
    ----------
    name:
        Identifier of the adaptation (used in traces and reports).
    replaced:
        Names of the original tasks forming the potentially faulty
        sub-workflow.
    replacement:
        The alternative sub-workflow.  Its task names must not collide with
        the original workflow's.
    entry_sources:
        For each *entry* task of the replacement, the original tasks (outside
        the replaced region) that must re-send their result to it — the
        ``ADDDST`` links of the paper.  Every listed source must be an
        upstream neighbour of the replaced region.
    trigger_on:
        Tasks whose failure triggers the adaptation.  Defaults to every task
        of the replaced region.
    clear_destination_inputs:
        When ``True`` (the paper's exact ``mv_src`` rule) the destination's
        ``IN`` atom is emptied entirely upon adaptation; when ``False`` (the
        default) only the inputs received from replaced tasks are dropped,
        which avoids losing results already delivered by tasks outside the
        region.  See DESIGN.md for the rationale.
    """

    __slots__ = ("name", "replaced", "replacement", "entry_sources", "trigger_on", "clear_destination_inputs")

    def __init__(
        self, name: str, replaced: list[str], replacement: "Workflow",
        entry_sources: dict[str, list[str]] | None = None, trigger_on: list[str] | None = None,
        clear_destination_inputs: bool = False,
    ):
        self.name, self.replaced, self.replacement, self.trigger_on = name, replaced, replacement, trigger_on
        self.entry_sources: dict[str, list[str]] = {} if entry_sources is None else entry_sources
        self.clear_destination_inputs = clear_destination_inputs

    # ------------------------------------------------------------ derived
    def trigger_tasks(self) -> list[str]:
        """Tasks whose ``ERROR`` result enables the adaptation."""
        return list(self.trigger_on) if self.trigger_on else list(self.replaced)

    def region_sources(self, workflow: "Workflow") -> list[str]:
        """Original tasks outside the region that feed the region.

        These are the tasks that receive an ``add_dst`` rule: upon adaptation
        they must re-send their results to the replacement's entry tasks.
        """
        return self._outside(workflow.predecessors)

    def destination(self, workflow: "Workflow") -> str:
        """The single task outside the region that consumes the region's output."""
        destinations = self._outside(workflow.successors)
        if len(destinations) != 1:
            raise AdaptationValidationError(
                f"adaptation {self.name!r}: the replaced region must have exactly one "
                f"destination outside it, found {destinations or 'none'}"
            )
        return destinations[0]

    def _outside(self, neighbours: Callable[[str], list[str]]) -> list[str]:
        """The ``neighbours`` of the region's tasks that lie outside it, first seen first."""
        replaced = set(self.replaced)
        return list(dict.fromkeys(
            neighbour for task_name in self.replaced for neighbour in neighbours(task_name) if neighbour not in replaced
        ))

    def replacement_entry_tasks(self) -> list[str]:
        """Entry tasks of the replacement sub-workflow."""
        return self.replacement.entry_tasks()

    def replacement_exit_tasks(self) -> list[str]:
        """Exit tasks of the replacement sub-workflow (all feed the destination)."""
        return self.replacement.exit_tasks()

    # ---------------------------------------------------------- validation
    def validate(self, workflow: "Workflow") -> None:
        """Check the replacement hypothesis of the paper against ``workflow``."""
        if not self.replaced:
            raise AdaptationValidationError(f"adaptation {self.name!r}: empty replaced region")
        unknown = [name for name in self.replaced if name not in workflow]
        if unknown:
            raise AdaptationValidationError(
                f"adaptation {self.name!r}: replaced tasks not in workflow: {unknown}"
            )
        duplicates = {name for name, count in Counter(self.replaced).items() if count > 1}
        if duplicates:
            raise AdaptationValidationError(
                f"adaptation {self.name!r}: duplicated replaced tasks {sorted(duplicates)}"
            )

        # replacement task names must not collide with the original workflow
        collisions = [name for name in self.replacement.task_names() if name in workflow]
        if collisions:
            raise AdaptationValidationError(
                f"adaptation {self.name!r}: replacement task names collide with the "
                f"workflow: {collisions}"
            )
        self.replacement.ensure_valid()

        # (a) connected replaced region.  Connectivity is evaluated on the
        # region plus its boundary (sources and destination): the paper's own
        # Fig. 13 experiment replaces the whole body of a *simple-connected*
        # diamond, whose columns only connect through the split and merge
        # tasks.
        replaced = set(self.replaced)
        region_sources = set(self.region_sources(workflow))
        region_with_boundary = replaced | region_sources | set(self._outside(workflow.successors))
        reached: set[str] = set()
        frontier = [next(iter(region_with_boundary))]
        while frontier:
            task_name = frontier.pop()
            if task_name in region_with_boundary and task_name not in reached:
                reached.add(task_name)
                frontier += workflow.successors(task_name) + workflow.predecessors(task_name)
        if reached != region_with_boundary:
            raise AdaptationValidationError(
                f"adaptation {self.name!r}: the replaced region (with its boundary) must be connected"
            )

        # (b) single common destination — Fig. 9(c) is the violation
        self.destination(workflow)

        # (c) entry sources must be actual upstream neighbours of the region,
        #     and must reference replacement entry tasks — Fig. 9(d) guards
        #     against the replacement talking to extra services.
        entry_tasks = set(self.replacement_entry_tasks())
        for replacement_task, sources in self.entry_sources.items():
            if replacement_task not in self.replacement:
                raise AdaptationValidationError(
                    f"adaptation {self.name!r}: entry_sources references unknown "
                    f"replacement task {replacement_task!r}"
                )
            if replacement_task not in entry_tasks:
                raise AdaptationValidationError(
                    f"adaptation {self.name!r}: {replacement_task!r} is not an entry task "
                    "of the replacement sub-workflow"
                )
            for source in sources:
                if source not in region_sources:
                    raise AdaptationValidationError(
                        f"adaptation {self.name!r}: {source!r} is not a source of the "
                        f"replaced region (sources are {sorted(region_sources)})"
                    )
        # every replacement entry task must receive data from somewhere
        # (either declared entry sources or its own initial inputs)
        for entry in entry_tasks:
            has_sources = bool(self.entry_sources.get(entry))
            has_inputs = bool(self.replacement.task(entry).inputs)
            if not has_sources and not has_inputs:
                raise AdaptationValidationError(
                    f"adaptation {self.name!r}: replacement entry task {entry!r} has neither "
                    "entry sources nor initial inputs"
                )

        # trigger tasks must belong to the replaced region
        for trigger in self.trigger_tasks():
            if trigger not in replaced:
                raise AdaptationValidationError(
                    f"adaptation {self.name!r}: trigger task {trigger!r} is not part of the "
                    "replaced region"
                )

    # ------------------------------------------------------------- utility
    def copy(self) -> "AdaptationSpec":
        """Deep copy of the specification."""
        return AdaptationSpec(
            name=self.name,
            replaced=list(self.replaced),
            replacement=self.replacement.copy(),
            entry_sources={key: list(value) for key, value in self.entry_sources.items()},
            trigger_on=list(self.trigger_on) if self.trigger_on else None,
            clear_destination_inputs=self.clear_destination_inputs,
        )
