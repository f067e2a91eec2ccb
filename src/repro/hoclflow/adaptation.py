"""Compilation of adaptation specifications into HOCL rules (Section III-C).

An :class:`~repro.workflow.adaptive.AdaptationSpec` is first resolved against
its workflow into an :class:`AdaptationPlan` — the concrete lists of sources,
destination, replacement entry/exit tasks and re-wiring links.  The plan is
then compiled into the three kinds of rules of the paper:

``trigger_adapt`` (one per trigger task, global solution)
    When the trigger task's ``RES`` contains ``ERROR``, inject the ``ADAPT``
    marker into every affected task (sources of the region, the destination,
    and the replacement entry tasks).

``add_dst`` (one per region source, in that task's sub-solution)
    When ``ADAPT`` is present, add the replacement entry tasks to the
    source's ``DST`` so that ``gw_pass`` re-sends its (still stored) result.

``mv_src`` (in the destination's sub-solution)
    When ``ADAPT`` is present, swap the replaced tasks for the replacement
    exit tasks in ``SRC`` and drop the inputs received from replaced tasks
    (or all inputs, with ``clear_destination_inputs=True``, reproducing the
    paper's exact rule).

``activate`` (one per replacement entry task, in its sub-solution)
    When ``ADAPT`` is present, remove the ``TRIGGER`` placeholder from the
    entry task's ``SRC`` so that it can start once its inputs arrive — this
    realises the ``TRIGGER : T2'`` atom of Fig. 6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hocl import (
    Atom,
    BindingView,
    Compute,
    Multiset,
    Omega,
    Rule,
    SolutionPattern,
    SolutionTemplate,
    Splice,
    Subsolution,
    Symbol,
    SymbolPattern,
    TuplePattern,
    TupleTemplate,
)
from repro.records import Record

from . import keywords as kw
from .fields import is_tagged_input, tagged_input_source

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workflow.adaptive import AdaptationSpec
    from repro.workflow.dag import Workflow

__all__ = [
    "AdaptationPlan",
    "build_plan",
    "make_trigger_adapt",
    "make_add_dst",
    "make_mv_src",
    "make_activate",
]


class AdaptationPlan(Record):
    """An adaptation specification resolved against its workflow.

    Attributes
    ----------
    spec:
        The originating specification.
    replaced:
        Tasks of the original workflow being replaced.
    trigger_tasks:
        Tasks whose ``ERROR`` result triggers the adaptation.
    sources:
        Original tasks (outside the region) that feed the region and must
        re-send their results after adaptation.
    destination:
        The single original task consuming the region's output.
    entry_tasks / exit_tasks:
        Entry and exit tasks of the replacement sub-workflow.
    added_destinations:
        For each source, the replacement entry tasks it must now also feed
        (the ``ADDDST`` links).
    new_sources:
        Replacement exit tasks that become sources of the destination (the
        ``MVSRC`` links).

    ``_local_trigger`` is the decentralised ``trigger_adapt`` of this plan,
    memoised here by :func:`repro.agents.local_rules.local_trigger`: one
    object per run, neither compared nor shown.
    """

    __slots__ = (
        "spec", "replaced", "trigger_tasks", "sources", "destination", "entry_tasks", "exit_tasks",
        "added_destinations", "new_sources", "_local_trigger",
    )

    def __init__(
        self, spec: "AdaptationSpec", replaced: list[str], trigger_tasks: list[str], sources: list[str],
        destination: str, entry_tasks: list[str], exit_tasks: list[str],
        added_destinations: dict[str, list[str]] | None = None, new_sources: list[str] | None = None,
    ):
        self.spec, self.replaced, self.trigger_tasks, self.sources = spec, replaced, trigger_tasks, sources
        self.destination, self.entry_tasks, self.exit_tasks = destination, entry_tasks, exit_tasks
        self.added_destinations: dict[str, list[str]] = {} if added_destinations is None else added_destinations
        self.new_sources: list[str] = [] if new_sources is None else new_sources
        self._local_trigger: Rule | None = None

    def affected_tasks(self) -> list[str]:
        """Every task that receives the ``ADAPT`` marker when the plan triggers."""
        affected = list(self.sources)
        if self.destination not in affected:
            affected.append(self.destination)
        for entry in self.entry_tasks:
            if entry not in affected:
                affected.append(entry)
        return affected

    def adapt_marker_counts(self) -> dict[str, int]:
        """How many ``ADAPT`` markers each affected task must receive.

        A task playing several roles (e.g. both a source and the destination
        of the region) owns one adaptation rule per role, and each rule
        consumes one marker.
        """
        counts: dict[str, int] = {}
        for source in self.sources:
            counts[source] = counts.get(source, 0) + 1
        counts[self.destination] = counts.get(self.destination, 0) + 1
        for entry in self.entry_tasks:
            counts[entry] = counts.get(entry, 0) + 1
        return counts


def build_plan(workflow: "Workflow", spec: "AdaptationSpec") -> AdaptationPlan:
    """Resolve ``spec`` against ``workflow`` into an :class:`AdaptationPlan`."""
    spec.validate(workflow)
    sources = spec.region_sources(workflow)
    destination = spec.destination(workflow)
    entry_tasks = spec.replacement_entry_tasks()
    exit_tasks = spec.replacement_exit_tasks()
    added: dict[str, list[str]] = {source: [] for source in sources}
    for entry, entry_sources in spec.entry_sources.items():
        for source in entry_sources:
            added.setdefault(source, [])
            if entry not in added[source]:
                added[source].append(entry)
    return AdaptationPlan(
        spec=spec,
        replaced=list(spec.replaced),
        trigger_tasks=spec.trigger_tasks(),
        sources=sources,
        destination=destination,
        entry_tasks=entry_tasks,
        exit_tasks=exit_tasks,
        added_destinations=added,
        new_sources=list(exit_tasks),
    )


def make_trigger_adapt(plan: AdaptationPlan, trigger_task: str) -> Rule:
    """The ``trigger_adapt`` rule for one trigger task (global solution).

    Paper (7.07-7.09)::

        trigger_adapt = replace-one T2 : <RES : <ERROR>, w2>, T1 : <w1>, T4 : <w4>
                        by          T2 : <w2>, T1 : <ADAPT, w1>, T4 : <ADAPT, w4>
    """
    affected = plan.affected_tasks()
    marker_counts = plan.adapt_marker_counts()
    patterns = [
        TuplePattern(
            SymbolPattern(trigger_task),
            SolutionPattern(
                TuplePattern(SymbolPattern(kw.RES), SolutionPattern(SymbolPattern(kw.ERROR), rest=Omega("wres"))),
                rest=Omega("wtrigger"),
            ),
        )
    ]
    # The paper's rule drops the ERROR marker from the trigger task; we keep
    # it so the final state still records which task failed (the decentralised
    # variant behaves the same way), which does not affect progress since
    # gw_pass never propagates ERROR and this rule is one-shot.
    products = [
        TupleTemplate(
            Symbol(trigger_task),
            SolutionTemplate(
                TupleTemplate(kw.RES_SYM, SolutionTemplate(kw.ERROR_SYM, Splice("wres"))),
                Splice("wtrigger"),
            ),
        )
    ]
    for index, task_name in enumerate(affected):
        omega_name = f"wadapt{index}"
        patterns.append(TuplePattern(SymbolPattern(task_name), SolutionPattern(rest=Omega(omega_name))))
        markers = [kw.ADAPT_SYM] * marker_counts.get(task_name, 1)
        products.append(
            TupleTemplate(Symbol(task_name), SolutionTemplate(*markers, Splice(omega_name)))
        )
    return Rule(
        name=f"trigger_adapt:{plan.spec.name}:{trigger_task}",
        patterns=patterns,
        products=products,
        one_shot=True,
        priority=10,
    )


#: One left-hand side — one compiled search — for every source's ``add_dst`` and every entry's ``activate``.
_ADD_DST_PATTERNS = (TuplePattern(SymbolPattern(kw.DST), SolutionPattern(rest=Omega("wdst"))), SymbolPattern(kw.ADAPT))
_ACTIVATE_PATTERNS = (
    TuplePattern(SymbolPattern(kw.SRC), SolutionPattern(SymbolPattern(kw.TRIGGER), rest=Omega("wsrc"))),
    SymbolPattern(kw.ADAPT),
)


def make_add_dst(plan: AdaptationPlan, source_task: str) -> Rule:
    """The ``add_dst`` rule of one region source (its sub-solution).

    Paper (7.01-7.03)::

        add_dst = replace-one DST : <>, ADAPT by DST : <T2'>

    Generalised to preserve any destinations still pending in ``DST``.
    """
    new_destinations = plan.added_destinations.get(source_task, [])
    return Rule(
        name=f"add_dst:{plan.spec.name}:{source_task}",
        patterns=_ADD_DST_PATTERNS,
        products=[
            TupleTemplate(
                kw.DST_SYM,
                SolutionTemplate(*[Symbol(name) for name in new_destinations], Splice("wdst")),
            )
        ],
        one_shot=True,
        priority=5,
    )


def make_mv_src(plan: AdaptationPlan) -> Rule:
    """The ``mv_src`` rule of the destination task (its sub-solution).

    Paper (7.04-7.06)::

        mv_src = replace-one SRC : <wsrc>, IN : <win>, ADAPT
                 by          SRC : <wsrc, T2'>, IN : <>

    Refined to *remove* the replaced tasks from ``SRC`` (the paper's ``MVSRC``
    atom moves the source) and, unless ``clear_destination_inputs`` is set, to
    drop only the inputs received from replaced tasks.

    Its one product is an opaque :class:`Compute` doing binding-dependent list
    surgery: it restates nothing, so the rule consumes everything it matched
    (it fires at most once per adaptation).
    """
    replaced = set(plan.replaced)
    new_sources = list(plan.new_sources)
    clear_all = plan.spec.clear_destination_inputs

    def rebuild(bindings: BindingView) -> list[Atom]:
        old_sources = bindings.atom("wsrc")
        old_inputs = bindings.atom("win")
        kept_sources = [
            atom for atom in old_sources if not (isinstance(atom, Symbol) and atom.name in replaced)
        ]
        source_atoms = kept_sources + [Symbol(name) for name in new_sources]
        if clear_all:
            kept_inputs: list[Atom] = []
        else:
            kept_inputs = [
                atom
                for atom in old_inputs
                if not (is_tagged_input(atom) and tagged_input_source(atom) in replaced)
            ]
        return [
            TupleTemplate(kw.SRC_SYM, SolutionTemplate(*source_atoms)).expand({}, None)[0],
            TupleTemplate(kw.IN_SYM, SolutionTemplate(*kept_inputs)).expand({}, None)[0],
        ]

    return Rule(
        name=f"mv_src:{plan.spec.name}:{plan.destination}",
        patterns=[
            TuplePattern(SymbolPattern(kw.SRC), SolutionPattern(rest=Omega("wsrc"))),
            TuplePattern(SymbolPattern(kw.IN), SolutionPattern(rest=Omega("win"))),
            SymbolPattern(kw.ADAPT),
        ],
        products=[Compute(rebuild)],
        one_shot=True,
        priority=5,
    )


def make_activate(plan: AdaptationPlan, entry_task: str) -> Rule:
    """The ``activate`` rule of one replacement entry task (its sub-solution).

    Removes the ``TRIGGER`` placeholder from the entry task's ``SRC`` once the
    adaptation has fired, letting the replacement sub-workflow start.
    """
    return Rule(
        name=f"activate:{plan.spec.name}:{entry_task}",
        patterns=_ACTIVATE_PATTERNS,
        products=[TupleTemplate(kw.SRC_SYM, SolutionTemplate(Splice("wsrc")))],
        one_shot=True,
        priority=5,
    )
