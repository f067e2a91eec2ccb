"""Decentralised variants of the enactment rules — one compiled set per run.

Section IV-A: "the rules presented in Section III-B do not enable a
decentralised execution by themselves.  In particular, the ``gw_pass`` rule
is supposed to act from outside subsolutions...  In the GinFlow environment,
this was modified to act from within a subsolution: once the result of the
invocation of the service it manages is collected, a SA triggers a local
version of the ``gw_pass`` rule which calls a function that sends a message
directly to the destination SA."

The local rule set of one agent is therefore:

* ``gw_setup`` — unchanged (purely local);
* ``gw_call`` — instead of synchronously calling ``invoke``, it marks the
  sub-solution ``INVOKING`` and emits a :class:`~repro.agents.actions.StartInvocation`
  action (the invocation takes time and is driven by the runtime);
* ``gw_pass`` (local) — for each destination still listed in ``DST``, emit a
  :class:`~repro.agents.actions.SendResult` action and drop the destination;
* ``trigger_adapt`` (local) — when ``RES`` contains ``ERROR`` and this task
  triggers an adaptation plan, emit :class:`~repro.agents.actions.SendAdapt`
  actions towards every affected task (the ``targets`` given to the plan's
  binding);
* the adaptation rules proper (``add_dst`` / ``mv_src`` / ``activate``) are
  *already* local — the same rule objects produced by
  :mod:`repro.hoclflow.adaptation` are reused verbatim.

The shared-rule contract
------------------------
The rules are the same for every agent, so they are compiled once and every
agent's solution holds the same objects: :data:`GW_SETUP`, :data:`GW_CALL`
and :data:`GW_PASS` exist once per process, a trigger task holds the one
local ``trigger_adapt`` bound to its plan (:meth:`~repro.hocl.rules.Rule.bind`:
same search, products, delta and effect), and :data:`LOCAL_EXTERNALS` is the
one registry every agent's engine calls.  None of them holds per-agent state:
patterns, templates, givens and deltas are immutable, and an effect hook is a
module-level function of the values it names that *returns* its actions, which come
back in the :class:`~repro.hocl.engine.ReductionReport` of the ``reduce``
call that fired the rule — so agents reduced concurrently on different
threads never see each other's actions.  An agent owns only its atoms.
"""

from __future__ import annotations

from repro.hocl import (
    IntAtom,
    Omega,
    Rule,
    SolutionPattern,
    SolutionTemplate,
    Splice,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    TupleTemplate,
    Ref,
    Var,
    default_registry,
)
from repro.hoclflow import keywords as kw
from repro.hoclflow.adaptation import AdaptationPlan
from repro.hoclflow.generic_rules import GW_CALL_PATTERNS, GW_SETUP, RESULT_NOT_ERROR, register_workflow_externals
from repro.hoclflow.translator import TaskEncoding

from .actions import Action, SendAdapt, SendResult, StartInvocation

__all__ = ["GW_SETUP", "GW_CALL", "GW_PASS", "LOCAL_EXTERNALS", "local_trigger", "build_local_rules"]


def _start_invocation(s: object, par: object) -> list[Action]:
    return [StartInvocation(service=str(s), parameters=tuple(par if isinstance(par, list) else [par]))]


def _send_result(tj: object, res: object) -> list[Action]:
    return [SendResult(destination=str(tj), value=res)]


def _send_adapt(targets: list[tuple[str, int]]) -> list[Action]:
    return [SendAdapt(task, count) for task, count in targets]


#: Local ``gw_call``: request the invocation instead of performing it.
GW_CALL = Rule(
    name="gw_call",
    patterns=GW_CALL_PATTERNS[:3],  # SRC : <>, SRV : s, PAR : par — no RES to patch
    products=[
        TupleTemplate(kw.SRC_SYM, SolutionTemplate()),
        TupleTemplate(kw.SRV_SYM, Ref("s")),
        kw.INVOKING_SYM,
    ],
    one_shot=True,
    effect=_start_invocation,
)

#: Local ``gw_pass``: send the (non-``ERROR``) result to one pending destination.
GW_PASS = Rule(
    name="gw_pass",
    patterns=[
        TuplePattern(SymbolPattern(kw.RES), SolutionPattern(Var("res"), rest=Omega("wres"))),
        TuplePattern(SymbolPattern(kw.DST), SolutionPattern(Var("tj", kind="symbol"), rest=Omega("wdst"))),
    ],
    products=[
        TupleTemplate(kw.RES_SYM, SolutionTemplate(Ref("res"), Splice("wres"))),
        TupleTemplate(kw.DST_SYM, SolutionTemplate(Splice("wdst"))),
    ],
    condition=RESULT_NOT_ERROR,
    one_shot=False,
    effect=_send_result,
)

#: Local ``trigger_adapt``, written once and bound per plan (:func:`local_trigger`):
#: send ``count`` ``ADAPT`` markers to each ``task : count`` of the ``targets``.
_TRIGGER_ADAPT = Rule(
    name="trigger_adapt",
    patterns=[TuplePattern(SymbolPattern(kw.RES), SolutionPattern(SymbolPattern(kw.ERROR), rest=Omega("wres")))],
    products=[],  # keep_matched=True: the matched RES tuple stays where it is
    one_shot=True,
    keep_matched=True,
    effect=_send_adapt,
    priority=10,
)

#: ``params`` and the built-ins; the decentralised ``gw_call`` never calls
#: ``invoke`` (the runtime owns the invocation), so that one does nothing.
LOCAL_EXTERNALS = register_workflow_externals(default_registry(), lambda *_args: None)


def local_trigger(plan: AdaptationPlan) -> Rule:
    """Local ``trigger_adapt`` of ``plan``: broadcast ``ADAPT`` when this task fails."""
    targets = [TupleAtom([Symbol(task), IntAtom(count)]) for task, count in plan.adapt_marker_counts().items()]
    return _TRIGGER_ADAPT.bind(name=plan.trigger_rule_name(), targets=targets)


def build_local_rules(encoding: TaskEncoding) -> list[Rule]:
    """The local rule set of the agent managing ``encoding``: shared objects, listed.

    Every rule's *first* pattern names a head symbol (``SRC``, ``RES``,
    ``DST``...), so the engine's rule index can refute inapplicable rules
    from the local solution's head-symbol buckets without running a match.
    """
    return [GW_SETUP, GW_CALL, GW_PASS, *map(local_trigger, encoding.trigger_plans), *encoding.adaptation_rules]
