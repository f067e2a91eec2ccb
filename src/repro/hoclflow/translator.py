"""Translation of a user-level workflow into its HOCL encoding.

This is the step the paper performs "in a transparent way before the actual
execution of the workflow starts" (Section IV-D): starting from the abstract
DAG (plus adaptation specifications), produce

* one *task encoding* per task — its ``SRC``/``DST``/``SRV``/``IN``/``RES``
  fields and the rules that live inside its sub-solution (``gw_setup``,
  ``gw_call`` and any adaptation rule assigned to it), and
* the *global* rules — ``gw_pass`` and one ``trigger_adapt`` per (adaptation,
  trigger task) pair.

The same encoding feeds both execution modes: the centralised executor folds
everything into a single multiset (the concrete workflow of Fig. 8), while
the distributed executors hand each task encoding to its service agent.
Only the first needs a centralised ``gw_call`` per task: the one centralised
rule bound to the task's name (``make_gw_call``), sharing its products,
search and delta with every other task's, and bound when first read
(:attr:`TaskEncoding.local_rules`), so a decentralised run never binds one.
``gw_setup`` is one object for all.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.hocl import Multiset, Rule, Subsolution, Symbol, TupleAtom
from repro.records import Record
from repro.workflow.dag import Workflow

from . import keywords as kw
from .adaptation import AdaptationPlan, build_plan, make_activate, make_add_dst, make_mv_src, make_trigger_adapt
from .fields import task_solution
from .generic_rules import GW_SETUP, make_gw_call, make_gw_pass

__all__ = ["TaskEncoding", "WorkflowEncoding", "encode_workflow"]


class TaskEncoding(Record):
    """Everything needed to instantiate one task, locally or centrally.

    Attributes
    ----------
    name, service, inputs, duration, metadata:
        Copied from the :class:`~repro.workflow.dag.Task` (replacement tasks
        come from their replacement sub-workflow).
    sources:
        Tasks whose results this task waits for (its initial ``SRC``), plus
        the ``TRIGGER`` placeholder for replacement entry tasks.
    destinations:
        Tasks this task sends its result to (its initial ``DST``).
    adaptation_rules:
        The adaptation rules assigned to the task (``add_dst`` / ``mv_src`` /
        ``activate``); the same objects serve both execution modes.
    local_rules:
        Rules living inside the task's centralised sub-solution: the shared
        ``gw_setup``, the ``gw_call`` bound to this task and
        :attr:`adaptation_rules`, built on first access.
    trigger_plans:
        Adaptation plans triggered by this task's failure (used by the
        decentralised engine, where the trigger is a message rather than a
        global rule).
    is_replacement:
        Whether the task belongs to a replacement sub-workflow (idle until
        its adaptation fires).
    adaptation:
        Name of the adaptation owning this replacement task, if any.
    """

    __slots__ = (
        "name", "service", "inputs", "duration", "metadata", "sources", "destinations", "has_trigger_placeholder",
        "adaptation_rules", "trigger_plans", "is_replacement", "adaptation", "_local_rules",
    )

    def __init__(
        self, name: str, service: str, inputs: list[Any], duration: float, metadata: dict[str, Any],
        sources: list[str], destinations: list[str], has_trigger_placeholder: bool = False,
        adaptation_rules: list[Rule] | None = None, trigger_plans: list[AdaptationPlan] | None = None,
        is_replacement: bool = False, adaptation: str | None = None,
    ):
        self.name, self.service, self.inputs, self.duration, self.metadata = name, service, inputs, duration, metadata
        self.sources, self.destinations, self.has_trigger_placeholder = sources, destinations, has_trigger_placeholder
        self.adaptation_rules: list[Rule] = [] if adaptation_rules is None else adaptation_rules
        self.trigger_plans: list[AdaptationPlan] = [] if trigger_plans is None else trigger_plans
        self.is_replacement, self.adaptation = is_replacement, adaptation
        self._local_rules: list[Rule] | None = None

    @property
    def local_rules(self) -> list[Rule]:
        if self._local_rules is None:
            self._local_rules = [GW_SETUP, make_gw_call(self.name), *self.adaptation_rules]
        return self._local_rules

    def initial_solution(self, rules: Sequence[Rule] | None = None) -> Multiset:
        """The task's initial (local) solution: its fields and ``rules``
        (:attr:`local_rules` by default), built in one pass."""
        return task_solution(
            source_tasks=self.sources + ([kw.TRIGGER] if self.has_trigger_placeholder else []),
            destination_tasks=self.destinations,
            service=self.service,
            inputs=self.inputs,
            rules=self.local_rules if rules is None else rules,
        )

    def as_tuple(self, include_rules: bool = True) -> TupleAtom:
        """The ``Tname : <...>`` tuple used in the centralised multiset."""
        return TupleAtom([Symbol(self.name), Subsolution(self.initial_solution(None if include_rules else ()))])


class WorkflowEncoding(Record):
    """The complete HOCL encoding of a workflow (tasks + global rules)."""

    __slots__ = ("workflow", "tasks", "global_rules", "plans")

    def __init__(
        self, workflow: Workflow, tasks: dict[str, TaskEncoding], global_rules: list[Rule], plans: list[AdaptationPlan]
    ):
        self.workflow, self.tasks, self.global_rules, self.plans = workflow, tasks, global_rules, plans

    def task_names(self) -> list[str]:
        """Every encoded task (original + replacement), in insertion order."""
        return list(self.tasks)

    def exit_tasks(self) -> list[str]:
        """Tasks whose results mark workflow completion (original exits)."""
        return self.workflow.exit_tasks()

    def replacement_tasks(self) -> list[str]:
        """Names of the replacement tasks (deployed but initially idle)."""
        return [name for name, encoding in self.tasks.items() if encoding.is_replacement]

    def to_multiset(self, include_rules: bool = True, built: Callable[[], None] | None = None) -> Multiset:
        """The centralised concrete workflow (Fig. 8): one global multiset, built
        in one pass, ``built()`` called per task tuple and once for the global
        multiset itself."""
        atoms: list[Any] = list(self.global_rules) if include_rules else []
        for encoding in self.tasks.values():
            atoms.append(encoding.as_tuple(include_rules))
            if built is not None:
                built()
        solution = Multiset(atoms)
        if built is not None:
            built()
        return solution


def encode_workflow(workflow: Workflow) -> WorkflowEncoding:
    """Encode ``workflow`` (and its adaptations) into HOCL building blocks."""
    workflow.ensure_valid()
    plans = [build_plan(workflow, spec) for spec in workflow.adaptations]

    def encode(task: Any, sources: list[str], destinations: list[str], **extra: Any) -> None:
        encodings[task.name] = TaskEncoding(
            name=task.name,
            service=task.service,
            inputs=list(task.inputs),
            duration=task.duration,
            metadata=dict(task.metadata),
            sources=sources,
            destinations=destinations,
            **extra,
        )

    encodings: dict[str, TaskEncoding] = {}
    for task in workflow:
        encode(task, workflow.predecessors(task.name), workflow.successors(task.name))

    # --- replacement tasks --------------------------------------------------
    for plan in plans:
        replacement = plan.spec.replacement
        entry_tasks = set(plan.entry_tasks)
        exit_tasks = set(plan.exit_tasks)
        for task in replacement:
            sources = replacement.predecessors(task.name)
            destinations = replacement.successors(task.name)
            if task.name in entry_tasks:
                sources = list(plan.spec.entry_sources.get(task.name, [])) + sources
            if task.name in exit_tasks:
                destinations = destinations + [plan.destination]
            encode(
                task,
                sources,
                destinations,
                has_trigger_placeholder=task.name in entry_tasks,
                is_replacement=True,
                adaptation=plan.spec.name,
            )

    # --- adaptation rules ---------------------------------------------------
    global_rules: list[Rule] = [make_gw_pass()]
    for plan in plans:
        for trigger_task in plan.trigger_tasks:
            global_rules.append(make_trigger_adapt(plan, trigger_task))
            encodings[trigger_task].trigger_plans.append(plan)
        for source in plan.sources:
            encodings[source].adaptation_rules.append(make_add_dst(plan, source))
        encodings[plan.destination].adaptation_rules.append(make_mv_src(plan))
        for entry in plan.entry_tasks:
            encodings[entry].adaptation_rules.append(make_activate(plan, entry))

    return WorkflowEncoding(workflow=workflow, tasks=encodings, global_rules=global_rules, plans=plans)
