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

``add_dst``, ``mv_src`` and ``activate`` are written once, at module level;
each task's rule is one of them bound (:meth:`~repro.hocl.rules.Rule.bind`)
to its name and to what the plan gives it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hocl import (
    Call,
    ListTemplate,
    Omega,
    Rule,
    SolutionPattern,
    SolutionTemplate,
    Splice,
    Symbol,
    SymbolPattern,
    TuplePattern,
    TupleTemplate,
)
from repro.records import Record

from . import keywords as kw

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
        Entry and exit tasks of the replacement sub-workflow; the exit tasks
        become sources of the destination (the ``MVSRC`` links).
    added_destinations:
        For each source, the replacement entry tasks it must now also feed
        (the ``ADDDST`` links).
    """

    __slots__ = (
        "spec", "replaced", "trigger_tasks", "sources", "destination", "entry_tasks", "exit_tasks",
        "added_destinations",
    )

    def __init__(
        self, spec: "AdaptationSpec", replaced: list[str], trigger_tasks: list[str], sources: list[str],
        destination: str, entry_tasks: list[str], exit_tasks: list[str],
        added_destinations: dict[str, list[str]] | None = None,
    ):
        self.spec, self.replaced, self.trigger_tasks, self.sources = spec, replaced, trigger_tasks, sources
        self.destination, self.entry_tasks, self.exit_tasks = destination, entry_tasks, exit_tasks
        self.added_destinations: dict[str, list[str]] = {} if added_destinations is None else added_destinations

    def trigger_rule_name(self, task: str | None = None) -> str:
        """Name of this plan's ``trigger_adapt`` rule: the local one each trigger
        agent holds, or the global solution's one for trigger ``task``."""
        name = f"trigger_adapt:{self.spec.name}"
        return name if task is None else f"{name}:{task}"

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
    """Resolve ``spec``, one of ``workflow``'s adaptations, into an :class:`AdaptationPlan`."""
    workflow.ensure_valid()
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
        name=plan.trigger_rule_name(trigger_task),
        patterns=patterns,
        products=products,
        one_shot=True,
        priority=10,
    )


_ADAPT = SymbolPattern(kw.ADAPT)

#: ``add_dst`` written once; each source's rule is it bound to the entry tasks ``new`` it must now feed.
_ADD_DST = Rule(
    name="add_dst",
    patterns=[TuplePattern(SymbolPattern(kw.DST), SolutionPattern(rest=Omega("wdst"))), _ADAPT],
    products=[TupleTemplate(kw.DST_SYM, SolutionTemplate(Splice("new"), Splice("wdst")))],
    one_shot=True,
    priority=5,
)

_MV_SRC_PATTERNS = (
    TuplePattern(SymbolPattern(kw.SRC), SolutionPattern(rest=Omega("wsrc"))),
    TuplePattern(SymbolPattern(kw.IN), SolutionPattern(rest=Omega("win"))),
    _ADAPT,
)


def _mv_src(inputs: SolutionTemplate) -> Rule:
    """``mv_src`` written once with ``IN : inputs``; the destination's rule is
    it bound to the ``replaced`` tasks and the ``new`` sources."""
    replaced = ListTemplate(Splice("replaced"))
    sources = SolutionTemplate(Call("minus", ListTemplate(Splice("wsrc")), replaced), Splice("new"))
    products = [TupleTemplate(kw.SRC_SYM, sources), TupleTemplate(kw.IN_SYM, inputs)]
    return Rule(name="mv_src", patterns=_MV_SRC_PATTERNS, products=products, one_shot=True, priority=5)


_MV_SRC = _mv_src(SolutionTemplate(Call("drop_inputs", ListTemplate(Splice("win")), ListTemplate(Splice("replaced")))))
_MV_SRC_CLEARING = _mv_src(SolutionTemplate())  # the paper's IN : <>

#: ``activate`` written once; each entry task's rule is it under its own name.
_ACTIVATE = Rule(
    name="activate",
    patterns=[TuplePattern(SymbolPattern(kw.SRC), SolutionPattern(SymbolPattern(kw.TRIGGER), rest=Omega("wsrc"))), _ADAPT],
    products=[TupleTemplate(kw.SRC_SYM, SolutionTemplate(Splice("wsrc")))],
    one_shot=True,
    priority=5,
)


def make_add_dst(plan: AdaptationPlan, source_task: str) -> Rule:
    """The ``add_dst`` rule of one region source (its sub-solution).

    Paper (7.01-7.03)::

        add_dst = replace-one DST : <>, ADAPT by DST : <T2'>

    Generalised to preserve any destinations still pending in ``DST``:
    ``DST : <new, wdst>``, with ``new`` the entry tasks the source now feeds.
    """
    new = [Symbol(name) for name in plan.added_destinations.get(source_task, [])]
    return _ADD_DST.bind(name=f"add_dst:{plan.spec.name}:{source_task}", new=new)


def make_mv_src(plan: AdaptationPlan) -> Rule:
    """The ``mv_src`` rule of the destination task (its sub-solution).

    Paper (7.04-7.06)::

        mv_src = replace-one SRC : <wsrc>, IN : <win>, ADAPT
                 by          SRC : <wsrc, T2'>, IN : <>

    Refined to *remove* the replaced tasks from ``SRC`` (the paper's ``MVSRC``
    atom moves the source) and, unless ``clear_destination_inputs`` is set, to
    drop only the inputs received from replaced tasks::

        by SRC : <minus(wsrc, replaced), new>, IN : <drop_inputs(win, replaced)>

    with ``new`` the replacement's exit tasks.  It restates nothing, so the
    rule consumes everything it matched (it fires at most once per adaptation).
    """
    rule = _MV_SRC_CLEARING if plan.spec.clear_destination_inputs else _MV_SRC
    return rule.bind(
        name=f"mv_src:{plan.spec.name}:{plan.destination}",
        replaced=[Symbol(name) for name in plan.replaced],
        new=[Symbol(name) for name in plan.exit_tasks],
    )


def make_activate(plan: AdaptationPlan, entry_task: str) -> Rule:
    """The ``activate`` rule of one replacement entry task (its sub-solution).

    Removes the ``TRIGGER`` placeholder from the entry task's ``SRC`` once the
    adaptation has fired, letting the replacement sub-workflow start.
    """
    return _ACTIVATE.bind(name=f"activate:{plan.spec.name}:{entry_task}")
