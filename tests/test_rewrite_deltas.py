"""Rules written once: the rewrite delta derived from a rule's two sides.

Every rule fires through the :class:`~repro.hocl.deltas.RewriteDelta` that
:func:`~repro.hocl.deltas.derive_delta` reads off its patterns and products,
and the engine is held to HOCL's one-step relation (``hocl_semantics.py``:
everything matched removed, the products expanded): every reaction is one of
its steps, at the first match in enumeration order, and a full reduce reaches
what the reactions one at a time reach.  The evidence:

* **derivation** — each workflow rule derives, op for op, the delta that used
  to be written by hand beside it, in site form (an op names the slot of the
  sites a search binds that it edits); a parsed rule derives what the same rule built
  in Python derives;
* **where a firing lands** — by the entries the match took: two fields under
  one head patch in place, the matched occurrence of equal atoms is the one
  that leaves, and a product restating a bound solution is a copy (a solution
  has one holder), which a later firing patches in place;
* **seeded mutants** — a site off by one, removal by equality (in a body or
  at the level), sites recorded out of walk order, a ``Ref`` expansion that
  shares a solution, an ``add`` that wires a second holder and a pre-check
  that refutes a candidate that matches each fail that evidence (a mutant of
  the fire or the search patches what writes it);
* **sharing** — every task's centralised ``gw_call`` is one rule bound to its
  task, so a 1000-task run derives each delta once;
* **property-based differential** — hypothesis draws drain-shaped two-field
  rules with random keep / drop / add edits and random solutions, each
  firing on the relation;
* **end-to-end** — every reduction a run makes while it enacts each scenario
  family on each runtime (the agents' on the simulated and the asyncio one,
  the centralised executor's one) is on the relation, and so is a diamond's;
  the check leaves a fully connected diamond's simulated run as it is.
"""

import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from reduction_reference import assert_on_the_relation, walk_the_relation, watch_reactions
from repro.agents.actions import SendAdapt
from repro.agents.local_rules import GW_CALL, GW_PASS, LOCAL_EXTERNALS, local_trigger
from repro.executors.centralized import CentralizedExecutor
from repro.hocl import rules as rules_module
from repro.hocl import (
    AtomError,
    Call,
    Compare,
    default_registry,
    IntAtom,
    Multiset,
    Omega,
    ReductionEngine,
    ReductionError,
    Ref,
    Rule,
    RulePattern,
    SolutionPattern,
    SolutionTemplate,
    Splice,
    StringAtom,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    TupleTemplate,
    Var,
    parse_program,
)
from repro.hocl.deltas import Fire, PatchAdd, PatchRemove, RewriteDelta, derive_delta
from repro.hocl.patterns import Source
from repro.hoclflow import keywords as kw
from repro.hoclflow import adaptation
from repro.hoclflow.adaptation import build_plan, make_activate, make_add_dst, make_mv_src, make_trigger_adapt
from repro.hoclflow.fields import get_in_atoms, get_src, tagged_input
from repro.hoclflow.generic_rules import make_gw_call, make_gw_pass, make_gw_setup, register_workflow_externals
from repro.runtime import GinFlow
from repro.scenarios import available_scenarios, build_scenario
from repro.workflow import adaptive_diamond_workflow, diamond_workflow


# ------------------------------------------------------------- fixture rules
def getmax_delta_rule():
    """Pairwise max: the winner is kept in place, the loser consumed."""
    return Rule(
        "max",
        [Var("x", kind="int"), Var("y", kind="int")],
        [Ref("x")],
        condition=Compare(">=", Ref("x"), Ref("y")),
    )


def drain_rule():
    """Move one item from the BAG body into the SINK body."""
    return Rule(
        "drain",
        [
            TuplePattern(SymbolPattern("BAG"), SolutionPattern(Var("x", kind="int"), rest=Omega("w"))),
            TuplePattern(SymbolPattern("SINK"), SolutionPattern(rest=Omega("ws"))),
        ],
        [
            TupleTemplate(Symbol("BAG"), SolutionTemplate(Splice("w"))),
            TupleTemplate(Symbol("SINK"), SolutionTemplate(Ref("x"), Splice("ws"))),
        ],
    )


def field(head, *atoms):
    return TupleAtom([Symbol(head), Subsolution(list(atoms))])


def _reduce(atoms, externals=None):
    solution = Multiset(atoms)
    return ReductionEngine(externals=externals).reduce(solution), solution


#: The adaptation rule bodies every plan's rules are bound from.
_ADAPTATION_BODIES = (adaptation._ADD_DST, adaptation._MV_SRC, adaptation._MV_SRC_CLEARING, adaptation._ACTIVATE)


def shape(delta):
    """A delta as comparable values: each op's kind, site and the entries it
    unlinks or the templates it adds; what it consumes and produces."""
    ops = [(type(op).__name__, op.site, op.entries if isinstance(op, PatchRemove) else repr(op.templates)) for op in delta.ops]
    return ops, delta.consume, repr(delta.produce)


# ----------------------------------------------------------------- derivation
def adaptive_plan(clear_destination_inputs=False):
    workflow = adaptive_diamond_workflow(3, 3, "full", "simple")
    workflow.adaptations[0].clear_destination_inputs = clear_destination_inputs
    return build_plan(workflow, workflow.adaptations[0])


@pytest.fixture(scope="module")
def plan():
    return adaptive_plan()


def _hand_written(plan):
    """The eight deltas the workflow rules used to carry, as they were written,
    in site form: ``(rule, delta)`` by name.  The sites are the entry of each
    top-level pattern, then per solution pattern (outer before inner) the
    solution and the entry of each of its elements."""
    trigger, source, entry = plan.trigger_tasks[0], plan.sources[0], plan.entry_tasks[0]
    counts = plan.adapt_marker_counts()
    return {
        "gw_setup": (
            make_gw_setup(),
            RewriteDelta(consume=(1,), produce=(TupleTemplate(kw.PAR_SYM, Call("params", Splice("win"))),)),
        ),
        "gw_call": (
            make_gw_call("T"),
            RewriteDelta(
                consume=(2,),
                # sites 0-3 the four fields, 4 <> of SRC, 5 the RES body
                ops=(PatchAdd(5, templates=(Call("invoke", Ref("task"), Ref("s"), Ref("par")),)),),
            ),
        ),
        "gw_pass": (
            make_gw_pass(),
            # sites 0-1 Ti and Tj; 2 Ti's body, 3-4 its RES and DST; 5 the RES
            # body, 6 res; 7 the DST body, 8 tj; 9 Tj's body, 10-11 its SRC and
            # IN; 12 the SRC body, 13 ti; 14 the IN body
            RewriteDelta(
                ops=(
                    PatchRemove(7, entries=(8,)),
                    PatchRemove(12, entries=(13,)),
                    PatchAdd(14, templates=(TupleTemplate(Ref("ti"), Ref("res")),)),
                ),
            ),
        ),
        "trigger_adapt": (
            make_trigger_adapt(plan, trigger),
            # sites 0-5 the six tasks; 6-9 the trigger's body and RES; 10- the affected tasks' bodies
            RewriteDelta(
                ops=tuple(
                    PatchAdd(10 + index, templates=(kw.ADAPT_SYM,) * counts.get(task, 1))
                    for index, task in enumerate(plan.affected_tasks())
                ),
            ),
        ),
        "add_dst": (
            make_add_dst(plan, source),
            RewriteDelta(
                consume=(1,),
                ops=(PatchAdd(2, templates=(Splice("new"),)),),  # sites 0 DST, 1 ADAPT, 2 the DST body
            ),
        ),
        "activate": (
            make_activate(plan, entry),
            # sites 0 SRC, 1 ADAPT, 2 the SRC body, 3 TRIGGER
            RewriteDelta(consume=(1,), ops=(PatchRemove(2, entries=(3,)),)),
        ),
        "local gw_call": (GW_CALL, RewriteDelta(consume=(2,), produce=(kw.INVOKING_SYM,))),
        # sites 0 RES, 1 DST, 2 the RES body, 3 res, 4 the DST body, 5 tj
        "local gw_pass": (GW_PASS, RewriteDelta(ops=(PatchRemove(4, entries=(5,)),))),
    }


@pytest.mark.parametrize(
    "name",
    ["gw_setup", "gw_call", "gw_pass", "trigger_adapt", "add_dst", "activate", "local gw_call", "local gw_pass"],
)
def test_each_workflow_rule_derives_its_hand_written_delta(plan, name):
    rule, expected = _hand_written(plan)[name]
    assert shape(rule.delta) == shape(expected)
    assert rule.delta is rule.delta  # derived once


_T = TupleTemplate
_S = SolutionTemplate


@pytest.mark.parametrize(
    "pattern, product, ops, kept",
    [
        # a tuple with a remainder, restated with it
        (TuplePattern(SymbolPattern("M"), Var("t"), rest=Omega("r")), _T(Symbol("M"), Ref("t"), Splice("r")), [], True),
        (TuplePattern(SymbolPattern("M"), Var("t"), rest=Omega("r")), _T(Symbol("M"), Ref("t")), [], False),
        # a sub-solution atom is kept too (sites: the atom, its solution, x)
        (SolutionPattern(Var("x"), rest=Omega("w")), _S(Splice("w")), [("PatchRemove", 1, (2,))], True),
        # the remainder not spliced back: the body does not survive
        (TuplePattern(SymbolPattern("IN"), SolutionPattern(rest=Omega("w"))), _T(Symbol("IN"), _S()), [], False),
        # a field restated under its head is patched one level down (sites: the
        # atom, its solution, H, H's body) ...
        (
            SolutionPattern(TuplePattern(SymbolPattern("H"), SolutionPattern(rest=Omega("a"))), rest=Omega("w")),
            _S(_T(Symbol("H"), _S(Symbol("NEW"), Splice("a"))), Splice("w")),
            [("PatchAdd", 3, "(Symbol('NEW'),)")],
            True,
        ),
        # ... and so is one of two under one head: the match names the field it bound
        (
            SolutionPattern(
                TuplePattern(SymbolPattern("H"), SolutionPattern(rest=Omega("a"))),
                TuplePattern(SymbolPattern("H"), SolutionPattern(rest=Omega("b"))),
            ),
            _S(_T(Symbol("H"), _S(Symbol("NEW"), Splice("a"))), _T(Symbol("H"), _S(Splice("b")))),
            [("PatchAdd", 4, "(Symbol('NEW'),)")],
            True,
        ),
        # an unnamed rule leaves by the entry it took: no template need name it
        (SolutionPattern(RulePattern("r"), rest=Omega("w")), _S(Splice("w")), [("PatchRemove", 1, (2,))], True),
    ],
)
def test_what_restates_what(pattern, product, ops, kept):
    delta = Rule("r", [pattern], [product]).delta
    assert shape(delta)[0] == ops
    assert (delta.consume, len(delta.produce)) == (((), 0) if kept else ((0,), 1))


@pytest.mark.parametrize("clear", [False, True])
def test_an_opaque_product_consumes_everything_matched(clear):
    plan = adaptive_plan(clear)
    rule = make_mv_src(plan)
    assert shape(rule.delta) == shape(RewriteDelta(consume=(0, 1, 2), produce=rule.products))
    assert rule.name == "mv_src:adaptive-diamond-3x3-full-to-simple:replace-body:merge"
    # a Call sees every binding: each one reads them all, as they were before the reaction ...
    seen, externals = [], register_workflow_externals(default_registry(), lambda *_: None)
    for name in ("minus", "drop_inputs"):

        def reading(args, bindings, function=externals._functions[name]):
            seen.append({key: bindings[key] for key in bindings})
            return function(args, bindings)

        externals.register(name, reading)
    sources = [Symbol(task) for task in plan.replaced]
    inputs = [tagged_input(task, "r") for task in plan.replaced]
    solution = Multiset([field("SRC", *sources), field("IN", *(atom.copy() for atom in inputs)), kw.ADAPT_SYM, rule])
    assert ReductionEngine(externals=externals).reduce(solution).rule_fires == {rule.name: 1}
    new = [Symbol(task) for task in plan.exit_tasks]
    assert seen == [{"replaced": sources, "new": new, "wsrc": sources, "win": inputs}] * (1 if clear else 2)
    # ... for the fire runs every one before its first edit
    lines = rule.reaction.__source__.splitlines()
    edits = [at for at, line in enumerate(lines) if "._remove_entry(" in line or ".add(" in line]
    assert edits and max(at for at, line in enumerate(lines) if ".invoke(" in line) < min(edits)


def test_the_local_trigger_keeps_its_res_tuple_in_place(plan):
    rule = local_trigger(plan)
    assert shape(rule.delta) == shape(RewriteDelta())
    res = field("RES", kw.ERROR_SYM)
    solution = Multiset(["first", res, rule, "last"])
    kept = [entry for entry in solution.live_entries() if entry.atom is not rule]
    report = ReductionEngine().reduce(solution)
    assert report.rule_fires == {rule.name: 1}
    assert report.effects == [
        SendAdapt(task, count, plan.spec.name) for task, count in plan.adapt_marker_counts().items()
    ]
    assert list(solution.live_entries()) == kept
    assert report.history[0].produced == 1


def test_a_parsed_rule_derives_the_constructed_delta():
    program = parse_program(
        "let drain = replace BAG : <x, ?w>, SINK : <?ws> by BAG : <?w>, SINK : <x, ?ws> in "
        "<BAG : <1, 2, 3>, SINK : <>, drain>"
    )
    parsed = program.rules["drain"]
    assert shape(parsed.delta) == shape(drain_rule().delta)
    report, built = _reduce([field("BAG", 1, 2, 3), field("SINK"), drain_rule()])
    assert ReductionEngine().reduce(program.solution).rule_fires == report.rule_fires == {"drain": 3}
    assert program.solution.content_hash() == built.content_hash()


# ------------------------------------------------------------------ sharing
def test_every_centralised_gw_call_shares_one_rule_body():
    """The task is a given binding: the rule body is written, searched and derived once."""
    first, second = make_gw_call("a"), make_gw_call("b")
    assert first.delta is second.delta
    assert first.products is second.products and first.reaction is second.reaction
    assert shape(first.delta) == shape(derive_delta(first.patterns, first.products))
    assert (first.given, second.given) == ({"task": StringAtom("a")}, {"task": StringAtom("b")})
    assert first.summary is second.summary and "task" in first.summary.bound(first.given)


def test_a_centralised_montage_derives_each_delta_once(monkeypatch):
    derived = Counter()

    def counting(patterns, products, keep_matched=False):
        derived[(*map(id, patterns), *map(id, products))] += 1
        return derive_delta(patterns, products, keep_matched)

    monkeypatch.setattr(rules_module, "derive_delta", counting)
    report = CentralizedExecutor().execute(build_scenario("montage:size=1000,seed=1")).report
    assert report.rule_fires["gw_call"] == 1000
    assert set(derived.values()) <= {1}
    assert len(derived) <= 3  # gw_setup, gw_call, gw_pass: not one per task


def test_a_simulated_adaptive_diamond_derives_each_delta_once(monkeypatch):
    """``add_dst``, ``mv_src``, ``activate`` and the local ``trigger_adapt`` are
    written once and bound per source, plan and entry task: 21 entry tasks
    share one ``activate`` body, and a run reacts with seven bodies, not 27,
    none derived twice."""
    derived, bodies = Counter(), {}

    def counting(patterns, products, keep_matched=False):
        derived[(*map(id, patterns), *map(id, products))] += 1
        return derive_delta(patterns, products, keep_matched)

    def reacting(run, solution, owner, *rest):
        bodies.setdefault(id(owner.delta), owner.name.split(":")[0])
        return run(solution, owner, *rest)

    monkeypatch.setattr(rules_module, "derive_delta", counting)
    watch_reactions(monkeypatch, reacting)
    report = GinFlow().run(adaptive_diamond_workflow(21, 21, "full", "simple"), mode="simulated")
    fires = report.extra["rule_fires"]
    assert report.succeeded and sum(count for name, count in fires.items() if name.startswith("activate")) == 21
    assert set(derived.values()) <= {1}
    assert sorted(bodies.values()) == ["activate", "add_dst", "gw_call", "gw_pass", "gw_setup", "mv_src", "trigger_adapt"]


def test_a_forced_error_fails_its_own_task_only():
    workflow = diamond_workflow(2, 2)
    workflow.task("T_1_1").metadata["force_error"] = True
    outcome = CentralizedExecutor().execute(workflow)
    assert outcome.errors == {"T_1_1": "ERROR"}
    assert set(outcome.results) == {"split", "T_1_2", "T_2_2"}  # T_2_1 and merge wait on T_1_1


# ------------------------------------------------------------------ unit
def _both_forms(build, externals=None):
    """Reduce what ``build()`` returns one reaction at a time on the relation,
    and in one reduce; the two must agree.  Returns the latter's solution."""
    return assert_on_the_relation(lambda: Multiset(build()), externals)


@pytest.mark.parametrize("clear", [False, True])
def test_mv_src_is_on_the_relation(clear):
    """Both ``mv_src`` bodies: the replaced sources leave ``SRC`` and the exits
    join it; ``IN`` keeps what no replaced task sent, or nothing (``IN : <>``)."""
    plan = adaptive_plan(clear)
    kept = [tagged_input("split", "s"), StringAtom("seed")]
    dropped = [tagged_input(task, "r") for task in plan.replaced[-3:]]

    def build():
        sources = field("SRC", *(Symbol(task) for task in [*plan.replaced[-3:], "split"]))
        return [sources, field("IN", *dropped, *kept), kw.ADAPT_SYM, make_mv_src(plan)]

    solution = _both_forms(build, LOCAL_EXTERNALS)
    assert get_src(solution) == ["split", *plan.exit_tasks]
    assert get_in_atoms(solution) == ([] if clear else kept)
    assert kw.ADAPT_SYM not in solution


#: ``(rule, ops, body of S, S's body after)``: a rule editing one of two fields under one head
TWO_FIELDS_UNDER_ONE_HEAD = [
    (
        "replace-one S : <H : <TAG, ?a>, ?w> by S : <H : <TAG, NEW, ?a>, ?w>",
        [("PatchAdd", 3, "(Symbol('NEW'),)")],  # sites: S, its body, H, H's body, TAG
        [field("H"), field("H", Symbol("TAG"))],
        [field("H"), field("H", Symbol("TAG"), Symbol("NEW"))],
    ),
    (
        "replace-one S : <H : <GHOST, ?a>, ?w> by S : <H : <?a>, ?w>",
        [("PatchRemove", 3, (4,))],
        [field("H"), field("H", Symbol("GHOST"))],
        [field("H"), field("H")],
    ),
]


def _edit(rule):
    return parse_program(f"let edit = {rule} in <>").rules["edit"]


def two_fields_patch_in_place(rule, body, expected):
    edit = _edit(rule)
    solution = _both_forms(lambda: [field("S", *(atom.copy() for atom in body)), edit])
    expected = [atom.copy() for atom in expected]  # the table's atoms stay unheld
    assert solution.content_hash() == Multiset([field("S", *expected)]).content_hash()
    # in place: the same S tuple, and the same field objects in its body
    fields = [atom.copy() for atom in body]
    anchor = field("S", *fields)
    solution = Multiset([anchor, edit])
    ReductionEngine().reduce(solution)
    assert list(map(id, solution.atoms())) == [id(anchor)]
    assert list(map(id, anchor.elements[1].solution)) == list(map(id, fields))
    assert anchor == field("S", *(atom.copy() for atom in expected))


def keep_x_drop_y():
    """``BAG : <x, y, ?w>`` keeps ``x`` and drops ``y``."""
    return Rule(
        "drop",
        [TuplePattern(SymbolPattern("BAG"), SolutionPattern(Var("x", kind="int"), Var("y", kind="int"), rest=Omega("w")))],
        [TupleTemplate(Symbol("BAG"), SolutionTemplate(Ref("x"), Splice("w")))],
        one_shot=True,
    )


def the_matched_occurrence_leaves(where):
    """Two equal atoms that are not the same object (an int is not interned):
    the one the match took is the one that goes, in a patched body
    (``drop``'s ``y``) and at the level (``max`` consumes its ``y``)."""

    def build(first, second):
        if where == "in a patched body":
            return [field("BAG", first, second), keep_x_drop_y()]
        return [first, second, getmax_delta_rule()]

    _both_forms(lambda: build(IntAtom(1), IntAtom(1)))
    first = IntAtom(1)
    atoms = build(first, IntAtom(1))
    solution = Multiset(atoms)
    ReductionEngine().reduce(solution)
    left = atoms[0].elements[1].solution.atoms() if where == "in a patched body" else solution.atoms()[:1]
    assert [id(atom) for atom in left] == [id(first)]


def dup_then_bump(shared):
    """``dup`` restates a bound solution twice (``x`` twice, or ``b`` in two
    tuples): the second is a copy; ``bump`` then edits one ``H``, and only that
    one.  ``S`` around ``H``: the copied solution is the one on the way to the
    edited body, not the edited one."""
    outer = shared.endswith("around")
    if shared.startswith("the same tuple twice"):
        dup = Rule("dup", [Var("x", kind="tuple")], [Ref("x"), Ref("x")], one_shot=True, priority=1)
    else:
        head = "S" if outer else "H"
        copy = TupleTemplate(Symbol(head), Ref("b"))
        dup = Rule("dup", [TuplePattern(SymbolPattern(head), Var("b"))], [copy, copy], one_shot=True, priority=1)
    one, two = SolutionPattern(IntAtom(1), rest=Omega("w")), SolutionTemplate(IntAtom(2), Splice("w"))
    bump = TuplePattern(SymbolPattern("H"), one), TupleTemplate(Symbol("H"), two)
    if outer:
        bump = (
            TuplePattern(SymbolPattern("S"), SolutionPattern(bump[0], rest=Omega("ws"))),
            TupleTemplate(Symbol("S"), SolutionTemplate(bump[1], Splice("ws"))),
        )
    edited = field("S", field("H", IntAtom(1))) if outer else field("H", IntAtom(1))
    return [edited, dup, Rule("bump", [bump[0]], [bump[1]], one_shot=True)]


def _spine(solution):
    """The ids of every tuple and solution below ``solution``, in entry order."""
    found = []
    for atom in solution:
        if isinstance(atom, (TupleAtom, Subsolution)):
            found.append(id(atom))
        for inner in [atom] if isinstance(atom, Subsolution) else getattr(atom, "elements", ()):
            if isinstance(inner, Subsolution):
                found += [id(inner.solution), *_spine(inner.solution)]
    return found


def dup_copies_and_bump_patches_in_place(shared):
    outer = shared.endswith("around")
    solution = _both_forms(lambda: dup_then_bump(shared))
    one, two = field("H", IntAtom(1)), field("H", IntAtom(2))
    expected = [field("S", one), field("S", two)] if outer else [one, two]
    assert solution.content_hash() == Multiset(expected).content_hash()
    # two bodies, and bump moves no tuple or solution dup left
    solution, spines, engine = Multiset(dup_then_bump(shared)), [], ReductionEngine(max_steps=1)
    while engine.reduce(solution).reactions:
        spines.append(_spine(solution))
    assert len(set(spines[0])) == len(spines[0]) and spines == [spines[0]] * 2


def a_second_holder_is_refused():
    """A solution has one holder: a tuple holding one already held is refused,
    and the holder and the refusing level are left as they were."""
    body = field("H", IntAtom(1)).elements[1]
    first, second = Multiset([TupleAtom([Symbol("H"), body])]), Multiset([Symbol("K")])
    try:
        second.add(TupleAtom([Symbol("H"), body]))
    except AtomError:
        pass
    else:
        raise AssertionError("a second holder was wired")
    assert body.solution._holder[0] is first and second.atoms() == [Symbol("K")]


def headless_drop():
    """``?h : <x, ?w>`` by ``h : <w>``: a head variable, so a tuple pattern
    searched through the level's candidate memory, pre-checked candidate by
    candidate."""
    return Rule(
        "drop",
        [TuplePattern(Var("h", kind="symbol"), SolutionPattern(Var("x", kind="int"), rest=Omega("w")))],
        [TupleTemplate(Ref("h"), SolutionTemplate(Splice("w")))],
        one_shot=True,
    )


def a_headless_field_is_found():
    """``headless_drop`` drops the ``x`` of the one field with an int in its body."""
    solution = _both_forms(lambda: [field("A"), field("B", Symbol("K")), field("C", IntAtom(1), Symbol("K")), headless_drop()])
    expected = [field("A"), field("B", Symbol("K")), field("C", Symbol("K"))]
    assert solution.content_hash() == Multiset(expected).content_hash()


SHARED = ["the same tuple twice", "one body in two tuples", "the same tuple twice, S around", "one body in two tuples, S around"]


class TestWhereAFiringLands:
    """A firing edits by the sites its match recorded: the field it bound,
    the occurrence it took; a product restating a bound solution is a copy,
    on the way to an edited one or edited itself, patched in place."""

    @pytest.mark.parametrize("rule, ops, body, expected", TWO_FIELDS_UNDER_ONE_HEAD, ids=["add", "remove"])
    def test_two_fields_under_one_head_patch_in_place(self, rule, ops, body, expected):
        assert shape(_edit(rule).delta)[0] == ops
        two_fields_patch_in_place(rule, body, expected)

    def test_a_head_naming_one_field_is_patched_in_place(self):
        program = parse_program(
            "let edit = replace-one S : <H : <TAG, ?a>, ?w> by S : <H : <TAG, NEW, ?a>, ?w> in "
            "<S : <H : <TAG>, K : <>>, edit>"
        )
        anchor = program.solution.find_tuple("S")
        ReductionEngine().reduce(program.solution)
        assert program.solution.atoms() == [anchor]  # the same tuple object, edited
        assert anchor == field("S", field("H", Symbol("TAG"), Symbol("NEW")), field("K"))

    @pytest.mark.parametrize("where", ["in a patched body", "at the level"])
    def test_the_matched_occurrence_leaves(self, where):
        if where == "in a patched body":
            assert shape(keep_x_drop_y().delta)[0] == [("PatchRemove", 1, (3,))]  # sites: BAG, its body, x, y
        else:
            assert getmax_delta_rule().delta.consume == (1,)
        the_matched_occurrence_leaves(where)

    @pytest.mark.parametrize("shared", SHARED)
    def test_dup_copies_and_bump_patches_in_place(self, shared):
        bump = dup_then_bump(shared)[2].delta
        if shared.endswith("around"):  # sites: S, its body, H, H's body, 1
            assert shape(bump)[0] == [("PatchRemove", 3, (4,)), ("PatchAdd", 3, "(IntAtom(2),)")]
        else:  # sites: H, its body, 1
            assert shape(bump)[0] == [("PatchRemove", 1, (2,)), ("PatchAdd", 1, "(IntAtom(2),)")]
        dup_copies_and_bump_patches_in_place(shared)

    def test_a_second_holder_is_refused(self):
        a_second_holder_is_refused()

    def test_a_headless_field_is_found(self):
        assert shape(headless_drop().delta)[0] == [("PatchRemove", 1, (2,))]  # sites: the field, its body, x
        a_headless_field_is_found()

    def test_a_literal_product_is_copied(self):
        """``bump`` edits what ``seed`` produced, between two of its firings:
        the second still produces ``H : <1>``."""
        literal = field("H", IntAtom(1))

        def build():
            seed = Rule("seed", [SymbolPattern("GO")], [literal])
            bump = Rule(
                "bump",
                [TuplePattern(SymbolPattern("H"), SolutionPattern(IntAtom(1), rest=Omega("w")))],
                [TupleTemplate(Symbol("H"), SolutionTemplate(IntAtom(2), Splice("w")))],
                one_shot=True,
                priority=1,
            )
            return [Symbol("GO"), Symbol("GO"), seed, bump]

        solution = _both_forms(build)
        assert literal == field("H", IntAtom(1))
        fields = [atom.copy() for atom in solution.atoms() if isinstance(atom, TupleAtom)]
        assert Multiset(fields).content_hash() == Multiset([field("H", IntAtom(1)), field("H", IntAtom(2))]).content_hash()


# -------------------------------------------------------------- seeded mutants
def _derived_as(edit):
    """A mutant of ``derive_delta``: what it derives, passed through ``edit``."""

    def mutant(monkeypatch):
        monkeypatch.setattr(rules_module, "derive_delta", lambda *args: edit(derive_delta(*args)))

    return mutant


def _entries_off_by_one(delta):
    ops = [PatchRemove(op.site, [entry - 1 for entry in op.entries]) if isinstance(op, PatchRemove) else op for op in delta.ops]
    return RewriteDelta(ops, delta.consume, delta.produce)


def _removal_by_equality(monkeypatch):
    def emit(self, out):
        for entry in self.entries:
            out.edit(f"{out.at(self.site)}.remove({out.at(entry)}.atom)")

    monkeypatch.setattr(PatchRemove, "emit", emit)


def _consumed_by_equality(monkeypatch):
    """Each consumed atom leaves through the first entry of the level holding an equal atom."""
    edit = Fire.edit

    def by_equality(self, text):
        consumed = re.fullmatch(r"solution\._remove_entry\((\w+)\)", text)
        return edit(self, f"solution.remove({consumed[1]}.atom)" if consumed else text)

    monkeypatch.setattr(Fire, "edit", by_equality)


def _sites_out_of_walk_order(monkeypatch):
    """Each solution pattern's sites go first: the walk read backwards."""

    def site(self, solution, entries):
        self.sites[:0] = [solution, *entries]

    monkeypatch.setattr(Source, "site", site)


def _ref_shares_a_solution(monkeypatch):
    """``Ref`` expands to the bound atom itself, solution and all."""
    monkeypatch.setattr(Ref, "emit", lambda self, out: out.atom(self.name))


def _reject_refutes_a_match(monkeypatch):
    """A tuple pattern's pre-check refutes every candidate, one that matches too."""
    monkeypatch.setattr(TuplePattern, "reject", lambda self, out, atom: "True")


def _add_wires_a_second_holder(monkeypatch):
    """``add`` takes a held solution from its holder instead of refusing it."""
    original = Multiset.add

    def add(self, value):
        if isinstance(value, (TupleAtom, Subsolution)):
            for held in [value] if isinstance(value, Subsolution) else value.elements:
                if isinstance(held, Subsolution):
                    held.solution._holder = None
        return original(self, value)

    monkeypatch.setattr(Multiset, "add", add)


MUTANTS = {
    "site off by one": _derived_as(_entries_off_by_one),
    "removal by equality": _removal_by_equality,
    "Ref expansion shares a solution": _ref_shares_a_solution,
    "add wires a second holder": _add_wires_a_second_holder,
    "consumed atom removed by equality": _consumed_by_equality,
    "sites out of walk order": _sites_out_of_walk_order,
    "reject refutes a candidate that matches": _reject_refutes_a_match,
}


def where_a_firing_lands():
    """The evidence each mutant must fail: the cases of :class:`TestWhereAFiringLands`
    (which hold them unmutated) on rules built here, so nothing was derived or
    searched before the mutant."""
    for rule, _ops, body, expected in TWO_FIELDS_UNDER_ONE_HEAD:
        two_fields_patch_in_place(rule, body, expected)
    for where in ("in a patched body", "at the level"):
        the_matched_occurrence_leaves(where)
    for shared in SHARED:
        dup_copies_and_bump_patches_in_place(shared)
    a_second_holder_is_refused()
    a_headless_field_is_found()


class TestSeededMutantsDie:
    @pytest.mark.parametrize("mutant", MUTANTS.values(), ids=MUTANTS.keys())
    def test_the_evidence_tells_it(self, mutant, monkeypatch):
        mutant(monkeypatch)
        with pytest.raises((AssertionError, ReductionError)):
            where_a_firing_lands()


class TestAppliedDelta:
    def test_applied_delta_accounting(self):
        report, solution = _reduce([field("BAG", IntAtom(1), IntAtom(2)), field("SINK"), drain_rule()])
        assert report.inert and report.reactions == 2
        # the kept BAG and SINK anchors: 2 consumed patterns, 2 products per fire
        assert {(r.consumed, r.produced) for r in report.history if r.rule == "drain"} == {(2, 2)}


# ---------------------------------------------------------- on the relation
integers = st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=25)


@settings(max_examples=50, deadline=None)
@given(integers)
def test_getmax_is_on_the_relation(values):
    solution = _both_forms(lambda: [*values, getmax_delta_rule()])
    remaining = [a.value for a in solution.atoms() if isinstance(a, IntAtom)]
    assert remaining == [max(values)]


@settings(max_examples=50, deadline=None)
@given(integers)
def test_drain_is_on_the_relation(values):
    solution = _both_forms(lambda: [field("BAG", *[IntAtom(v) for v in values]), field("SINK"), drain_rule()])
    assert len(solution.find_tuple("SINK").elements[1].solution) == len(values)


@st.composite
def two_field_programs(draw):
    """A one-shot rule over ``BAG : <...>`` and ``SINK : <...>`` (up to two
    int variables, an optional ``TAG`` and an optional nested ``H : <...>``
    field each, plus a remainder), whose products keep each field with random
    element drops and additions, drop it, or re-create it without its
    remainder; the two fields' contents, where a body may hold a second ``H``
    field; and maybe a ``dup`` rule that fires first and restates one field
    twice (the same tuple twice, or its body in two tuples): the second is a
    copy, a solution has one holder.

    The edit fires once: both forms fire it on the same match.  A second
    firing would search bodies the two forms leave in different orders, where
    a rule that is not confluent (drop ``x`` of ``<x, y, w>``) may pick other
    atoms."""
    fields = []
    for head in ("BAG", "SINK"):
        names = [f"{head.lower()}{index}" for index in range(draw(st.integers(0, 2)))]
        nested = draw(st.sampled_from([None, "H : <?h>", "H : <TAG, ?h>"]))
        fields.append((head, names, draw(st.booleans()), nested))
    bound = [name for _, names, _, _ in fields for name in names]
    additions = st.lists(
        st.one_of(
            st.sampled_from([Ref(name) for name in bound]) if bound else st.nothing(),
            st.just(Symbol("NEW")),
            st.builds(IntAtom, st.integers(0, 3)),
            st.sampled_from([Splice("w_bag"), Splice("w_sink")]),
        ),
        max_size=2,
    )
    patterns, products = [], []
    for head, names, tagged, nested in fields:
        lower = head.lower()
        elements = [Var(name, kind="int") for name in names] + ([SymbolPattern("TAG")] if tagged else [])
        if nested:
            inner = [SymbolPattern("TAG")] if "TAG" in nested else []
            elements.append(TuplePattern(SymbolPattern("H"), SolutionPattern(*inner, rest=Omega(f"h_{lower}"))))
        patterns.append(TuplePattern(SymbolPattern(head), SolutionPattern(*elements, rest=Omega(f"w_{lower}"))))
        mode = draw(st.sampled_from(["keep", "drop", "renew"]))
        if mode == "drop":
            continue
        body = list(draw(additions))
        if mode == "keep":
            body += [Splice(f"w_{lower}")]
            body += [Ref(name) for name in names if draw(st.booleans())]
            body += [Symbol("TAG")] if tagged and draw(st.booleans()) else []
            if nested and draw(st.booleans()):  # restated: kept, maybe edited one level down
                inner = [Splice(f"h_{lower}")]
                inner += [Symbol("TAG")] if "TAG" in nested and draw(st.booleans()) else []
                inner += [Symbol("NEW")] if draw(st.booleans()) else []
                body.append(TupleTemplate(Symbol("H"), SolutionTemplate(*draw(st.permutations(inner)))))
        products.append(TupleTemplate(Symbol(head), SolutionTemplate(*draw(st.permutations(body)))))
    products = draw(st.permutations(products))
    if bound and draw(st.booleans()):
        products.append(Ref(draw(st.sampled_from(bound))))  # restates no top-level pattern: produced
    rules = [Rule("edit", patterns, products, one_shot=True)]
    shared = draw(st.sampled_from([None, "BAG", "SINK"]))
    if shared is not None:
        if draw(st.booleans()):  # the same tuple twice
            twice = [TupleTemplate(Ref("h"), Splice("r"))] * 2
            rules.append(Rule("dup", [TuplePattern(Var("h", kind="symbol"), rest=Omega("r"))], twice, one_shot=True,
                              priority=1, condition=Compare("==", Ref("h"), Symbol(shared))))
        else:  # one body in two tuples
            copy = TupleTemplate(Symbol(shared), Ref("b"))
            pattern = TuplePattern(SymbolPattern(shared), Var("b"))
            rules.append(Rule("dup", [pattern], [copy, copy], one_shot=True, priority=1))
    contents = []
    for _, names, tagged, nested in fields:  # enough for the rule to match, and maybe more
        values = draw(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names) + 2))
        body = [IntAtom(value) for value in values] + [Symbol("TAG")] * (tagged + draw(st.integers(0, 1)))
        if nested:  # the field the rule matches, and maybe a second one under the same head
            body.append(field("H", *([Symbol("TAG")] if "TAG" in nested else []), *map(IntAtom, draw(integers_0_3))))
        if draw(st.booleans()):
            body.append(field("H", *([Symbol("TAG")] if draw(st.booleans()) else []), *map(IntAtom, draw(integers_0_3))))
        contents.append(draw(st.permutations(body)))
    return rules, contents


integers_0_3 = st.lists(st.integers(0, 3), max_size=2)


@settings(max_examples=200, deadline=None)
@given(two_field_programs())
def test_two_field_edits_are_on_the_relation(program):
    rules, (bag, sink) = program

    def atoms():  # fresh copies: the engine edits the bodies in place
        return [field("BAG", *(atom.copy() for atom in bag)), field("SINK", *(atom.copy() for atom in sink)), *rules]

    solution = Multiset(atoms())
    assert dict(walk_the_relation(solution)) == {rule.name: 1 for rule in rules}


# ------------------------------------------------------------ runtime parity
@pytest.fixture
def agent_reductions(monkeypatch):
    """Every reduction a run makes held to the relation first, on a copy:
    the rules it fires, counted."""
    reduce, walked, walking = ReductionEngine.reduce, Counter(), []

    def checked(engine, solution):
        if walking:  # the relation's own one-reaction steps
            return reduce(engine, solution)
        copy = solution.copy()
        walking.append(True)
        try:
            fired = walk_the_relation(copy, engine.externals)
        finally:
            walking.pop()
        report = reduce(engine, solution)
        assert dict(fired) == report.rule_fires and copy.content_hash() == solution.content_hash()
        walked.update(fired)
        return report

    monkeypatch.setattr(ReductionEngine, "reduce", checked)
    return walked


@pytest.mark.parametrize("mode", ["simulated", "asyncio", "centralized"])
@pytest.mark.parametrize("family", available_scenarios())
def test_every_reduction_of_a_run_is_on_the_relation(family, mode, agent_reductions):
    """Every family enacted on every runtime: each reduction the run makes,
    the agents' own rules included, is a path of the relation."""
    run = GinFlow().run(build_scenario(f"{family}:size=10,seed=1"), mode=mode, nodes=5)
    assert run.succeeded and sum(agent_reductions.values()) == run.reduction_reactions > 0
    assert agent_reductions == Counter(run.extra["rule_fires"])


def test_the_adaptation_rules_are_on_the_relation(agent_reductions):
    run = GinFlow().run(adaptive_diamond_workflow(3, 3, "full", "simple", duration=0.01), mode="simulated", nodes=5)
    assert run.succeeded
    assert {name.split(":")[0] for name in agent_reductions} >= {"trigger_adapt", "add_dst", "mv_src", "activate"}


@pytest.mark.parametrize("mode", ["simulated", "asyncio", "centralized"])
def test_a_diamond_on_every_runtime_is_on_the_relation(mode, agent_reductions):
    run = GinFlow().run(diamond_workflow(4, 3), mode=mode, nodes=5)
    assert run.succeeded and sum(agent_reductions.values()) == run.reduction_reactions > 0
    assert agent_reductions == Counter(run.extra["rule_fires"])


def test_simulated_trace_bit_identical(request):
    """A fully connected diamond's reductions are on the relation, and holding
    them to it (on copies) leaves the simulated run as it is unchecked: the
    runs checked are the runs that happen."""
    workflow = diamond_workflow(6, 4, connectivity="full")
    unchecked = GinFlow().run(workflow, mode="simulated", nodes=10)
    reductions = request.getfixturevalue("agent_reductions")
    checked = GinFlow().run(workflow, mode="simulated", nodes=10)
    assert unchecked.succeeded and checked.succeeded
    assert sum(reductions.values()) == checked.reduction_reactions == unchecked.reduction_reactions
    assert checked.results == unchecked.results
    assert checked.makespan == unchecked.makespan and checked.execution_time == unchecked.execution_time
    assert checked.messages_published == unchecked.messages_published
    assert checked.messages_delivered == unchecked.messages_delivered
    assert checked.reduction_match_attempts == unchecked.reduction_match_attempts
    assert checked.timeline == unchecked.timeline
    assert {name: outcome.finished_at for name, outcome in checked.tasks.items()} == {
        name: outcome.finished_at for name, outcome in unchecked.tasks.items()
    }
