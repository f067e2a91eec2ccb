"""The user-facing workflow model: tasks and their dependency DAG.

A :class:`Workflow` is the "abstract workflow" of the paper (Fig. 2): a set
of named :class:`Task` objects plus data/control dependencies forming a
directed acyclic graph.  Everything else — the HOCL encoding, the generic
enactment rules, the adaptation rules — is derived from this object by
:mod:`repro.hoclflow`.

Tasks carry the name of the *service* that implements them, an optional list
of initial inputs (the ``IN`` atom of the encoding), and free-form metadata.
The most important metadata key is ``duration``, the nominal execution time
of the service in seconds, used by the simulated services.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.records import Record

from .errors import WorkflowValidationError

__all__ = ["Task", "Workflow"]


class Task(Record):
    """One node of the workflow DAG.

    Attributes
    ----------
    name:
        Unique task identifier (``T1``, ``mProject_17``...).
    service:
        Name of the service implementing the task, resolved against the
        :class:`~repro.services.registry.ServiceRegistry` at run time.
    inputs:
        Initial input values placed in the task's ``IN`` atom before
        execution (only entry tasks normally have any).
    duration:
        Nominal service execution time in seconds (used by simulated
        services; ignored when the service is a real Python callable that
        does its own work).
    metadata:
        Free-form extra information (workload class, level index, ...).
    """

    __slots__ = ("name", "service", "inputs", "duration", "metadata")

    def __init__(
        self, name: str, service: str, inputs: list[Any] | None = None, duration: float = 0.0,
        metadata: dict[str, Any] | None = None,
    ):
        if not name or not isinstance(name, str):
            raise WorkflowValidationError(f"task name must be a non-empty string, got {name!r}")
        if not service or not isinstance(service, str):
            raise WorkflowValidationError(f"task {name!r}: service must be a non-empty string, got {service!r}")
        if duration < 0:
            raise WorkflowValidationError(f"task {name!r}: duration must be >= 0")
        self.name, self.service, self.duration = name, service, duration
        self.inputs: list[Any] = [] if inputs is None else inputs
        self.metadata: dict[str, Any] = {} if metadata is None else metadata

    def copy(self) -> "Task":
        """An independent copy of the task."""
        return Task(
            name=self.name,
            service=self.service,
            inputs=list(self.inputs),
            duration=self.duration,
            metadata=dict(self.metadata),
        )


class Workflow:
    """A named DAG of tasks.

    The class maintains the invariants the rest of the system relies on:
    unique task names, dependencies referring to known tasks, and acyclicity
    (checked on :meth:`validate`, which every consumer calls before use).

    Adaptation specifications (see :mod:`repro.workflow.adaptive`) attach to
    the workflow through :meth:`add_adaptation`.
    """

    def __init__(self, name: str = "workflow", tasks: Iterable[Task] = ()):  # noqa: B008
        if not name:
            raise WorkflowValidationError("workflow name must be non-empty")
        self.name = name
        self._tasks: dict[str, Task] = {}
        self._successors: dict[str, list[str]] = {}
        self._predecessors: dict[str, list[str]] = {}
        self.adaptations: list[Any] = []  # list[AdaptationSpec]; untyped to avoid an import cycle
        #: whether :meth:`validate` passed since the last mutation
        self._valid = False
        for task in tasks:
            self.add_task(task)

    # ------------------------------------------------------------- mutation
    def add_task(self, task: Task | str, service: str | None = None, **kwargs: Any) -> Task:
        """Add a task.

        Accepts either a ready-made :class:`Task` or a name plus keyword
        arguments forwarded to the :class:`Task` constructor::

            workflow.add_task("T1", service="s1", inputs=["data"], duration=2.0)
        """
        if isinstance(task, str):
            if service is None:
                raise WorkflowValidationError(f"task {task!r}: a service name is required")
            task = Task(name=task, service=service, **kwargs)
        elif service is not None or kwargs:
            raise WorkflowValidationError("pass either a Task object or name + keyword arguments, not both")
        if task.name in self._tasks:
            raise WorkflowValidationError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        self._successors.setdefault(task.name, [])
        self._predecessors.setdefault(task.name, [])
        self._valid = False
        return task

    def add_dependency(self, source: str, destination: str) -> None:
        """Declare that ``destination`` consumes the output of ``source``."""
        for endpoint in (source, destination):
            if endpoint not in self._tasks:
                raise WorkflowValidationError(f"dependency references unknown task {endpoint!r}")
        if source == destination:
            raise WorkflowValidationError(f"task {source!r} cannot depend on itself")
        # idempotent; the shorter side keeps a wide fan-out or fan-in O(1) per edge
        successors, predecessors = self._successors[source], self._predecessors[destination]
        if (destination in successors) if len(successors) <= len(predecessors) else (source in predecessors):
            return
        successors.append(destination)
        predecessors.append(source)
        self._valid = False

    def chain(self, *task_names: str) -> None:
        """Add dependencies forming a chain ``task_names[0] -> ... -> [-1]``."""
        for source, destination in zip(task_names, task_names[1:]):
            self.add_dependency(source, destination)

    def remove_task(self, name: str) -> None:
        """Remove a task and every dependency touching it."""
        if name not in self._tasks:
            raise WorkflowValidationError(f"unknown task {name!r}")
        del self._tasks[name]
        self._valid = False
        for successor in self._successors.pop(name):
            self._predecessors[successor].remove(name)
        for predecessor in self._predecessors.pop(name):
            self._successors[predecessor].remove(name)

    def add_adaptation(self, spec: Any) -> None:
        """Attach an adaptation specification (validated against this workflow).

        A valid workflow stays valid: the specification is the one thing
        :meth:`validate` would check anew.
        """
        spec.validate(self)
        for existing in self.adaptations:
            overlap = set(existing.replaced) & set(spec.replaced)
            if overlap:
                raise WorkflowValidationError(
                    "adaptations must concern disjoint sets of tasks; "
                    f"{spec.name!r} overlaps {existing.name!r} on {sorted(overlap)}"
                )
        self.adaptations.append(spec)

    # -------------------------------------------------------------- queries
    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    @property
    def tasks(self) -> Mapping[str, Task]:
        """Mapping of task name to :class:`Task` (read-only view)."""
        return dict(self._tasks)

    def task(self, name: str) -> Task:
        """The task named ``name`` (raises if unknown)."""
        try:
            return self._tasks[name]
        except KeyError:
            raise WorkflowValidationError(f"unknown task {name!r}") from None

    def task_names(self) -> list[str]:
        """Task names in insertion order."""
        return list(self._tasks)

    def successors(self, name: str) -> list[str]:
        """Names of the tasks consuming the output of ``name``."""
        self.task(name)
        return list(self._successors.get(name, []))

    def predecessors(self, name: str) -> list[str]:
        """Names of the tasks whose output ``name`` consumes."""
        self.task(name)
        return list(self._predecessors.get(name, []))

    def dependencies(self) -> list[tuple[str, str]]:
        """Every dependency as a ``(source, destination)`` pair."""
        return [
            (source, destination)
            for source, successors in self._successors.items()
            for destination in successors
        ]

    def entry_tasks(self) -> list[str]:
        """Tasks with no predecessor (the workflow's inputs)."""
        return [name for name in self._tasks if not self._predecessors.get(name)]

    def exit_tasks(self) -> list[str]:
        """Tasks with no successor (the workflow's outputs)."""
        return [name for name in self._tasks if not self._successors.get(name)]

    def topological_order(self) -> list[str]:
        """Task names in a valid execution order: :meth:`levels`, flattened."""
        return [name for level in self.levels() for name in level]

    def levels(self) -> list[list[str]]:
        """Tasks grouped by longest-path depth (level 0 = entry tasks); raises on cycles.

        Kahn's algorithm by generations — entry tasks in insertion order, then
        the tasks each level releases, in release order: the scenario
        generators and bench drivers iterate it, so the order is pinned by a test.
        """
        pending = {name: len(sources) for name, sources in self._predecessors.items() if sources}
        levels: list[list[str]] = []
        level = [name for name in self._tasks if name not in pending]
        while level:
            levels.append(level)
            released: list[str] = []
            for name in level:
                for successor in self._successors.get(name, ()):
                    pending[successor] -= 1
                    if not pending[successor]:
                        del pending[successor]
                        released.append(successor)
            level = released
        if pending:
            raise WorkflowValidationError(f"workflow {self.name!r} contains a cycle")
        return levels

    def find_cycle(self) -> list[str] | None:
        """The tasks of one dependency cycle, in edge order, or ``None``."""
        from graphlib import CycleError, TopologicalSorter

        try:
            TopologicalSorter(self._predecessors).prepare()
        except CycleError as exc:
            return list(exc.args[1][:-1])  # graphlib repeats the first task at the end
        return None

    def critical_path_length(self) -> float:
        """Length (sum of task durations) of the longest path through the DAG."""
        longest: dict[str, float] = {}
        for name in self.topological_order():
            predecessors = self._predecessors.get(name, [])
            best = max((longest[p] for p in predecessors), default=0.0)
            longest[name] = best + self._tasks[name].duration
        return max(longest.values(), default=0.0)

    def total_work(self) -> float:
        """Sum of every task's duration (the sequential execution time)."""
        return sum(task.duration for task in self._tasks.values())

    def subgraph(self, names: Iterable[str]) -> "Workflow":
        """A new workflow containing only ``names`` and the dependencies among them."""
        selected = set(names)
        for name in selected:
            self.task(name)
        result = Workflow(name=f"{self.name}:subgraph")
        for name in self._tasks:
            if name in selected:
                result.add_task(self._tasks[name].copy())
        for source, destination in self.dependencies():
            if source in selected and destination in selected:
                result.add_dependency(source, destination)
        return result

    # ----------------------------------------------------------- validation
    def validate(self) -> None:
        """Check the structural invariants; raise ``WorkflowValidationError`` otherwise."""
        self._valid = False
        if not self._tasks:
            raise WorkflowValidationError(f"workflow {self.name!r} has no task")
        try:
            self.levels()
        except WorkflowValidationError:
            raise WorkflowValidationError(f"workflow {self.name!r} contains a cycle: {self.find_cycle()}") from None
        for spec in self.adaptations:
            spec.validate(self)
        self._valid = True

    def ensure_valid(self) -> None:
        """:meth:`validate`, unless it passed since the last change to the graph.

        What the layers of one run call, so a workflow is checked once however
        many of them it crosses.  Only this class's graph mutators reset the
        memo (:meth:`add_adaptation` checks its specification itself): after
        editing a specification in place, call :meth:`validate`.
        """
        if not self._valid:
            self.validate()

    # -------------------------------------------------------------- utility
    def copy(self) -> "Workflow":
        """Deep copy of the workflow, including adaptations."""
        clone = Workflow(name=self.name)
        for task in self._tasks.values():
            clone.add_task(task.copy())
        for source, destination in self.dependencies():
            clone.add_dependency(source, destination)
        clone.adaptations = [spec.copy() for spec in self.adaptations]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Workflow({self.name!r}, {len(self._tasks)} tasks, "
            f"{len(self.dependencies())} dependencies, {len(self.adaptations)} adaptations)"
        )
