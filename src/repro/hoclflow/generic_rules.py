"""The generic workflow enactment rules of Fig. 4.

Three rules are enough to execute any (non-adaptive) workflow encoded as in
Fig. 3:

``gw_setup`` (``replace-one``, lives in each task sub-solution)
    Fires when every dependency is satisfied (``SRC : <>``); it turns the
    collected inputs (``IN``) into the ordered parameter list (``PAR``).

``gw_call`` (``replace-one``, lives in each task sub-solution)
    Fires once the parameters are ready; it invokes the service (through the
    ``invoke`` external function) and stores the result — or ``ERROR`` — in
    ``RES``.

``gw_pass`` (``replace``, lives in the global solution)
    Moves a produced result from a source task to one destination task,
    removing the corresponding ``DST``/``SRC`` dependency entries; repeated
    applications cover every edge of the DAG.

The rules here are the *centralised* versions: they assume every task
sub-solution lives in one multiset rewritten by one interpreter, exactly as
in Section III-B.  The decentralised variants (where ``gw_pass`` becomes a
message send) are built by :mod:`repro.agents.local_rules` on top of the same
building blocks.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.hocl import (
    Atom,
    Call,
    Compare,
    ExternalRegistry,
    ListAtom,
    Omega,
    Rule,
    SolutionPattern,
    SolutionTemplate,
    Splice,
    SymbolPattern,
    TuplePattern,
    TupleTemplate,
    Ref,
    Var,
    from_atom,
    to_atom,
)

from . import keywords as kw
from .fields import build_parameters, is_tagged_input, tagged_input_source

__all__ = [
    "GW_SETUP",
    "GW_CALL_PATTERNS",
    "make_gw_setup",
    "make_gw_call",
    "make_gw_pass",
    "RESULT_NOT_ERROR",
    "register_workflow_externals",
]


def make_gw_setup() -> Rule:
    """``gw_setup``: when ``SRC`` is empty, build ``PAR`` from ``IN`` (one-shot).

    Paper (4.01-4.03)::

        gw_setup = replace-one SRC : <>, IN : <w>
                   by SRC : <>, PAR : list(w)
    """
    return Rule(
        name="gw_setup",
        patterns=[
            TuplePattern(SymbolPattern(kw.SRC), SolutionPattern()),
            TuplePattern(SymbolPattern(kw.IN), SolutionPattern(rest=Omega("win"))),
        ],
        products=[
            TupleTemplate(kw.SRC_SYM, SolutionTemplate()),
            TupleTemplate(kw.PAR_SYM, Call("params", Splice("win"))),
        ],
        one_shot=True,
    )


#: The one ``gw_setup`` of the process: the rule holds no per-task state, so
#: every task sub-solution, centralised or agent-local, holds this object.
GW_SETUP = make_gw_setup()

#: The left-hand side of ``gw_call`` (paper 4.04); the agent-local rule
#: matches its first three patterns.
GW_CALL_PATTERNS = (
    TuplePattern(SymbolPattern(kw.SRC), SolutionPattern()),
    TuplePattern(SymbolPattern(kw.SRV), Var("s")),
    TuplePattern(SymbolPattern(kw.PAR), Var("par")),
    TuplePattern(SymbolPattern(kw.RES), SolutionPattern(rest=Omega("wres"))),
)


#: The centralised ``gw_call`` (paper 4.04-4.06), written once: ``invoke``
#: reads the task from the context binding ``task``, which no pattern binds.
_GW_CALL = Rule(
    name="gw_call",
    patterns=GW_CALL_PATTERNS,
    products=[
        TupleTemplate(kw.SRC_SYM, SolutionTemplate()),
        TupleTemplate(kw.SRV_SYM, Ref("s")),
        TupleTemplate(kw.RES_SYM, SolutionTemplate(Call("invoke", Ref("task"), Ref("s"), Ref("par")), Splice("wres"))),
    ],
    one_shot=True,
)


def make_gw_call(task_name: str) -> Rule:
    """``gw_call``: invoke the service on the prepared parameters (one-shot).

    Paper (4.04-4.06)::

        gw_call = replace-one SRC : <>, SRV : s, PAR : p, RES : <w>
                  by SRC : <>, SRV : s, RES : <invoke(s, p), w>

    The paper's interpreter knows which task's metadata (duration, forced
    errors, ...) an ``invoke`` concerns from its enclosing agent; here the
    task is that context binding, ``task``, given to the one centralised
    rule (:meth:`~repro.hocl.rules.Rule.bind`).  Every task's rule shares its
    patterns, products, search and derived delta.
    """
    return _GW_CALL.bind(task=task_name)


#: ``gw_pass``'s reaction condition, centralised and local: the transferred
#: result is not the ``ERROR`` marker.
RESULT_NOT_ERROR = Compare("!=", Ref("res"), kw.ERROR_SYM)


def make_gw_pass() -> Rule:
    """``gw_pass``: move one result from a source to one destination (n-shot).

    Paper (4.07-4.11)::

        gw_pass = replace Ti : <RES : <wres>, DST : <Tj, wdst>, wi>,
                          Tj : <SRC : <Ti, wsrc>, IN : <win>, wj>
                  by      Ti : <RES : <wres>, DST : <wdst>, wi>,
                          Tj : <SRC : <wsrc>, IN : <wres, win>, wj>

    Two refinements over the figure (both discussed in DESIGN.md): the rule
    only fires when a non-``ERROR`` result is present, and the transferred
    value is tagged with its producer (``Ti : value``) inside the
    destination's ``IN``.
    """
    return Rule(
        name="gw_pass",
        patterns=[
            TuplePattern(
                Var("ti", kind="symbol"),
                SolutionPattern(
                    TuplePattern(SymbolPattern(kw.RES), SolutionPattern(Var("res"), rest=Omega("wres"))),
                    TuplePattern(SymbolPattern(kw.DST), SolutionPattern(Var("tj", kind="symbol"), rest=Omega("wdst"))),
                    rest=Omega("wi"),
                ),
            ),
            TuplePattern(
                Var("tj", kind="symbol"),
                SolutionPattern(
                    TuplePattern(SymbolPattern(kw.SRC), SolutionPattern(Var("ti", kind="symbol"), rest=Omega("wsrc"))),
                    TuplePattern(SymbolPattern(kw.IN), SolutionPattern(rest=Omega("win"))),
                    rest=Omega("wj"),
                ),
            ),
        ],
        products=[
            TupleTemplate(
                Ref("ti"),
                SolutionTemplate(
                    TupleTemplate(kw.RES_SYM, SolutionTemplate(Ref("res"), Splice("wres"))),
                    TupleTemplate(kw.DST_SYM, SolutionTemplate(Splice("wdst"))),
                    Splice("wi"),
                ),
            ),
            TupleTemplate(
                Ref("tj"),
                SolutionTemplate(
                    TupleTemplate(kw.SRC_SYM, SolutionTemplate(Splice("wsrc"))),
                    TupleTemplate(
                        kw.IN_SYM,
                        SolutionTemplate(TupleTemplate(Ref("ti"), Ref("res")), Splice("win")),
                    ),
                    Splice("wj"),
                ),
            ),
        ],
        condition=RESULT_NOT_ERROR,
        one_shot=False,
    )


def _minus(args: list[Atom], _bindings: Any) -> list[Atom]:
    """``minus(w, d)``: the atoms of the list ``w`` that are not in the list ``d``."""
    atoms, dropped = args
    excluded = set(dropped)
    return [atom for atom in atoms if atom not in excluded]


def _drop_inputs(args: list[Atom], _bindings: Any) -> list[Atom]:
    """``drop_inputs(w, d)``: the inputs of the list ``w`` not tagged by a task of ``d``."""
    inputs, dropped = args
    sources = {task.name for task in dropped}
    return [atom for atom in inputs if not (is_tagged_input(atom) and tagged_input_source(atom) in sources)]


#: Signature of the service-invocation callback plugged into the registry:
#: ``invoke(task_name, service_name, parameters) -> result value`` (return
#: the string ``"ERROR"``/the ERROR symbol, or raise, to signal failure).
InvokeCallback = Callable[[str, str, list[Any]], Any]


def register_workflow_externals(
    registry: ExternalRegistry,
    invoke: InvokeCallback,
) -> ExternalRegistry:
    """Register the externals the workflow rules call: ``params`` and
    ``invoke`` (the generic rules), ``minus`` and ``drop_inputs`` (``mv_src``).

    ``invoke`` failures (exceptions) are converted into the ``ERROR`` marker
    atom, which is what enables the adaptation rules downstream.
    """

    def params_external(args: list[Atom], _bindings: Any) -> ListAtom:
        return ListAtom(build_parameters(args))

    def invoke_external(args: list[Atom], _bindings: Any) -> Atom:
        if len(args) != 3:
            raise ValueError(f"invoke expects (task, service, parameters), got {len(args)} arguments")
        task_name = str(from_atom(args[0]))
        service_name = str(from_atom(args[1]))
        parameters = from_atom(args[2])
        if not isinstance(parameters, list):
            parameters = [parameters]
        try:
            result = invoke(task_name, service_name, parameters)
            if isinstance(result, str) and result == kw.ERROR:
                return kw.ERROR_SYM
            # a value with no atom form (None, a dict, ...) fails the task too
            return to_atom(result)
        except Exception:  # noqa: BLE001 - a failed invocation is an ERROR result
            return kw.ERROR_SYM

    registry.register("params", params_external)
    registry.register("invoke", invoke_external)
    registry.register("minus", _minus)
    registry.register("drop_inputs", _drop_inputs)
    return registry
