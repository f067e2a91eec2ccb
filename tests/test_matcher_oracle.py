"""The generated reaction against HOCL's one-step relation.

``repro.hocl`` writes each rule body once as the source of one flat function,
its reaction (:class:`repro.hocl.deltas.Reaction`): the search of its
left-hand side and, at the first admissible match, its fire.  Everything here
holds that generated form to the relation ``hocl_semantics.py`` states or to
the contract the engine relies on:

* differential, on random pattern trees, conditions, given bindings and
  levels: every step the engine takes is one of the relation's, and a step at
  the top level fires at the first match in enumeration order, also after
  entries came back to the candidate memories out of turn (``GINFLOW_FULL``
  raises the example count);
* the text: one per shape whatever the pattern objects and the hash seed, one
  ``compile()`` per text, a handful per run, readable in a traceback, and past
  CPython's twenty nested blocks;
* no state on the generated form: eight threads reacting with one generated
  rule body at once;
* ω laziness, counted not timed: no remainder is copied for a ``gw_pass``
  firing, local or centralised, whatever the fan-in; an effect reads the
  pre-reaction remainder; a read after the solution changed raises;
* a pattern class of the caller's own, which writes its own lines, held to
  the relation told what it means.
"""

import os
import subprocess
import sys
import threading
import traceback
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hocl_semantics import Chemistry, _bound, canon
from reduction_reference import walk_the_relation, watch_reactions
from repro import GinFlow, diamond_workflow
from repro.hocl import (
    Call,
    Compare,
    IntAtom,
    Literal,
    Multiset,
    Omega,
    Pattern,
    PatternError,
    ReductionEngine,
    ReductionError,
    Ref,
    Rule,
    RuleError,
    RulePattern,
    SolutionPattern,
    SolutionTemplate,
    Splice,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    TupleTemplate,
    Var,
    default_registry,
)
from repro.hocl.multiset import _held_solutions
from repro.hoclflow import encode_workflow
from repro.hoclflow.generic_rules import make_gw_pass, register_workflow_externals

_EXAMPLES = 1500 if os.environ.get("GINFLOW_FULL") else 200

# ------------------------------------------------------------ random programs
#: few names, so that variables repeat, an ω name comes twice, or also as a Var
_NAMES = st.sampled_from(["x", "y", "w"])
_KINDS = st.sampled_from([None, None, "int", "symbol", "number", "tuple", "solution", "rule"])
_SYMBOLS = st.sampled_from(["A", "B", "C"]).map(Symbol)
_INTS = st.integers(0, 2).map(IntAtom)
_RESTS = st.one_of(st.none(), _NAMES.map(Omega))

_LEAF_PATTERNS = st.one_of(
    st.builds(Var, _NAMES, _KINDS),
    st.one_of(_INTS, _SYMBOLS).map(Literal),
    st.builds(RulePattern, st.sampled_from([None, "r", "other"]), st.one_of(st.none(), _NAMES)),
)


def _composite_patterns(children):
    heads = st.one_of(_SYMBOLS.map(Literal), children)
    return st.one_of(
        st.builds(lambda head, tail, rest: TuplePattern(head, *tail, rest=rest), heads, st.lists(children, max_size=2), _RESTS),
        st.builds(lambda rest: TuplePattern(rest=rest), _NAMES.map(Omega)),
        st.builds(lambda elements, rest: SolutionPattern(*elements, rest=rest), st.lists(children, max_size=2), _RESTS),
    )


_PATTERNS = st.recursive(_LEAF_PATTERNS, _composite_patterns, max_leaves=6)


def _composite_atoms(children):
    return st.one_of(
        st.builds(lambda head, tail: TupleAtom([head, *tail]), st.one_of(_SYMBOLS, children), st.lists(children, max_size=3)),
        st.lists(children, max_size=4).map(Subsolution),
    )


_RULE_ATOMS = st.sampled_from(["r", "s"]).map(lambda name: Rule(name, [Var("k")], []))
_ATOMS = st.recursive(st.one_of(_INTS, _SYMBOLS, _RULE_ATOMS), _composite_atoms, max_leaves=8)

_OF_KIND = {
    None: st.one_of(_INTS, _SYMBOLS),
    "int": _INTS,
    "number": _INTS,
    "symbol": _SYMBOLS,
    "tuple": st.builds(lambda head, item: TupleAtom([head, item]), _SYMBOLS, _INTS),
    "solution": st.lists(_INTS, max_size=2).map(Subsolution),
    "rule": _RULE_ATOMS,
}


def _instance(draw, pattern, env):
    """An atom ``pattern`` is likely to match, a repeated variable likely bound alike."""
    if isinstance(pattern, Var):  # equal atoms, not one: a solution has one holder
        if pattern.name in env and draw(st.booleans()):
            return env[pattern.name].copy()
        return env.setdefault(pattern.name, draw(_OF_KIND[pattern.kind])).copy()
    if isinstance(pattern, Literal):
        return pattern.atom
    if isinstance(pattern, RulePattern):
        return Rule(pattern.name or "r", [Var("k")], [])
    items = [_instance(draw, element, env) for element in pattern.elements]
    if pattern.rest is not None:  # likely the same atoms wherever an ω name comes, a solution's in any order
        known = env.get(("rest", pattern.rest.name))
        if known is not None and draw(st.booleans()):
            items += [atom.copy() for atom in known]
        else:
            fresh = draw(st.lists(_ATOMS, max_size=2))
            items += env.setdefault(("rest", pattern.rest.name), fresh) if known is None else fresh
    if isinstance(pattern, SolutionPattern):
        return Subsolution(draw(st.permutations(items)))
    return TupleAtom(items) if items else draw(_OF_KIND["tuple"])


@st.composite
def _programs(draw):
    """A left-hand side, and a level holding an instance of each of its patterns among others."""
    patterns = draw(st.lists(_PATTERNS, min_size=1, max_size=3))
    env = {}
    atoms = [_instance(draw, pattern, env) for pattern in patterns if draw(st.integers(0, 7))]
    return patterns, draw(st.permutations(atoms + draw(st.lists(_ATOMS, max_size=4))))


_INITIAL = st.one_of(
    st.none(),
    st.fixed_dictionaries({"x": st.one_of(_INTS, _SYMBOLS)}),
    st.fixed_dictionaries({"w": st.lists(_INTS, max_size=2)}),
    st.fixed_dictionaries({"elsewhere": _SYMBOLS}),
)

_CONDITIONS = st.one_of(
    st.none(),
    st.builds(
        lambda op, name, literal, swapped: Compare(op, literal, Ref(name)) if swapped else Compare(op, Ref(name), literal),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        st.sampled_from(["x", "y", "w", "elsewhere", "z"]),  # bound, given, or not at all
        _ATOMS,
        st.booleans(),
    ),
)


def _record(patterns):
    """A product recording what a match binds, as the relation can compare it:
    ``FIRED : <V_x : x, V_w : w..., V_y : <y...>, ...>`` — an ω only tuples
    bind in order, one a solution binds as a solution."""
    rests = set()

    def walk(pattern):
        if isinstance(pattern, SolutionPattern) and pattern.rest is not None:
            rests.add(pattern.rest.name)
        for element in getattr(pattern, "elements", ()):
            walk(element)

    for pattern in patterns:
        walk(pattern)
    names = {name for pattern in patterns for name in pattern.bound_names()}
    omegas = {name for pattern in patterns for name in pattern.omega_names()}
    fields = []
    for name in sorted(names):
        head = Symbol(f"V_{name}")
        if name in rests:
            fields.append(TupleTemplate(head, SolutionTemplate(Splice(name))))
        else:
            fields.append(TupleTemplate(head, Splice(name) if name in omegas else Ref(name)))
    return TupleTemplate(Symbol("FIRED"), SolutionTemplate(*fields))


def _probe(patterns, condition=None, initial=None, name="probe"):
    """The rule the differential fires once: ``patterns`` under ``condition``
    from ``initial``, recording what it bound; ``None`` where the rule is
    refused (a condition comparing an ω)."""
    try:
        return Rule(name, patterns, [_record(patterns)], condition=condition, given=initial, one_shot=True, priority=1)
    except RuleError as refused:
        omegas = {n for pattern in patterns for n in pattern.omega_names()}
        omegas |= {n for n, value in (initial or {}).items() if isinstance(value, list)}
        assert "omega binding" in str(refused) and omegas.intersection(condition.names)
        return None


def _matches(rule, level):
    """Every match the relation finds for ``rule``, held in ``level``."""
    return list(Chemistry().matches(rule, canon(level)[1]))


class TestOnTheRelation:
    @given(program=_programs(), condition=_CONDITIONS, initial=_INITIAL)
    @settings(max_examples=_EXAMPLES, deadline=None)
    def test_every_step_is_the_relations_and_the_first_match(self, program, condition, initial):
        patterns, atoms = program
        rule = _probe(patterns, condition, initial)
        if rule is not None:
            walk_the_relation(Multiset([*atoms, rule]))

    @given(
        program=_programs(),
        rounds=st.lists(st.lists(st.integers(0, 11), max_size=3), max_size=3),
        condition=_CONDITIONS,
    )
    @settings(max_examples=_EXAMPLES // 2, deadline=None)
    def test_what_returns_out_of_turn_is_read_in_turn(self, program, rounds, condition):
        """Between reactions something changes below some atoms, so their
        entries return to the candidate memories out of turn: the next rule
        built on the same patterns (the same memories) still fires at the first
        match in enumeration order."""
        patterns, atoms = program
        if _probe(patterns, condition) is None:
            return
        level = Multiset(atoms)
        holders = [held for atom in level if atom._mutable for held in _held_solutions(atom)]
        chemistry = Chemistry()
        for changes in [[], *rounds]:
            for change in changes:
                if holders:
                    holders[change % len(holders)].add(IntAtom(change % 3))
            level.add(_probe(patterns, condition))
            walk_the_relation(level, None, chemistry)

    @pytest.mark.parametrize(
        "patterns, atoms, matches",
        [
            # two elements of one solution pattern never take the same occurrence
            ([SolutionPattern(Var("x"), Var("y"), rest=Omega("w"))], [Subsolution([1, 2, 2])], 6),
            # a repeated variable, top level and nested
            ([Var("x", kind="int"), TuplePattern(SymbolPattern("T"), Var("x"))], [1, 2, TupleAtom([Symbol("T"), 2]), 2], 2),
            # one omega name for a tuple's rest and a solution's remainder: the same atoms, in any order
            (
                [TuplePattern(Var("h"), rest=Omega("w")), SolutionPattern(Literal(0), rest=Omega("w"))],
                [TupleAtom([Symbol("A"), 1, 2]), TupleAtom([Symbol("B"), 1]), Subsolution([0, 1, 2]), Subsolution([1, 0])],
                2,
            ),
            (
                [TuplePattern(Var("h"), rest=Omega("w")), SolutionPattern(Literal(0), rest=Omega("w"))],
                [TupleAtom([Symbol("A"), 1, 2]), TupleAtom([Symbol("B"), 2, 1]), Subsolution([2, 0, 1])],
                2,
            ),
            # one omega name for two tuples' rests: equal lists only
            (
                [TuplePattern(Var("h"), rest=Omega("w")), TuplePattern(SymbolPattern("B"), rest=Omega("w"))],
                [TupleAtom([Symbol("A"), 1, 2]), TupleAtom([Symbol("B"), 1, 2]), TupleAtom([Symbol("C"), 2, 1]), TupleAtom([Symbol("D"), 1, 2])],
                2,
            ),
            # an omega name that is also a variable never binds both
            ([Var("w"), SolutionPattern(rest=Omega("w"))], [1, Subsolution([1])], 0),
            # a typed field holds only its kind (a head-keyed tuple has no pre-check to do it)
            ([TuplePattern(SymbolPattern("T"), Var("x", kind="int"))], [TupleAtom([Symbol("T"), Symbol("A")]), TupleAtom([Symbol("T"), 1])], 1),
            # a rest-less tuple pattern takes its arity, not a prefix
            ([TuplePattern(SymbolPattern("T"), Var("x"))], [TupleAtom([Symbol("T"), 1, 2]), TupleAtom([Symbol("T"), 3])], 1),
            # a head variable bound to a symbol by now names the bucket: no memory for the tuple pattern
            (
                [Var("h", kind="symbol"), TuplePattern(Var("h"), Var("x"))],
                [Symbol("A"), Symbol("B"), TupleAtom([Symbol("A"), 1]), TupleAtom([Symbol("B"), 2]), TupleAtom([Symbol("C"), 3]), 4],
                2,
            ),
        ],
    )
    def test_hand_picked_programs(self, patterns, atoms, matches):
        rule = _probe(patterns)
        level = Multiset([*atoms, rule])
        assert len(_matches(rule, level)) == matches
        assert walk_the_relation(level)["probe"] == bool(matches)

    @given(
        rest=st.lists(st.one_of(_INTS, _SYMBOLS), min_size=2, max_size=3),
        solutions=st.lists(st.booleans(), min_size=2, max_size=2),
        data=st.data(),
    )
    @settings(max_examples=_EXAMPLES // 2, deadline=None)
    def test_one_omega_name_in_a_solution_holds_its_atoms_in_any_order(self, rest, solutions, data):
        """An ω name a solution pattern binds and another pattern binds again:
        the same atoms, in another entry order, are the same remainder."""
        patterns, atoms = [], []
        for index, solution in enumerate(solutions):
            if solution:
                patterns.append(SolutionPattern(Literal(Symbol(f"H{index}")), rest=Omega("w")))
                atoms.append(Subsolution(data.draw(st.permutations([Symbol(f"H{index}"), *[atom.copy() for atom in rest]]))))
            else:
                patterns.append(TuplePattern(SymbolPattern(f"H{index}"), rest=Omega("w")))
                atoms.append(TupleAtom([Symbol(f"H{index}"), *data.draw(st.permutations(rest))]))
        level = Multiset([*atoms, rule := _probe(patterns)])
        matches = len(_matches(rule, level))
        assert matches == (any(solutions) or atoms[0].elements[1:] == atoms[1].elements[1:])
        assert walk_the_relation(level)["probe"] == matches

    @pytest.mark.parametrize("op, fires", [("<", 0), ("<=", 1), (">", 0), (">=", 1), ("==", 1), ("!=", 0)])
    def test_a_condition_at_its_boundary(self, op, fires):
        rule = _probe([Var("x", kind="int")], Compare(op, Ref("x"), IntAtom(2)))
        level = Multiset([2, rule])
        assert len(_matches(rule, level)) == fires
        assert walk_the_relation(level)["probe"] == fires

    @pytest.mark.parametrize(
        "initial, matches",
        [
            ({"x": IntAtom(2), "w": [IntAtom(1)]}, 1),  # a variable and an omega name, both held to
            ({"x": IntAtom(2), "w": [IntAtom(9)]}, 0),
            ({"x": IntAtom(2)}, 2),  # the variable only: either remainder
            ({"w": [IntAtom(1)]}, 1),  # the remainder only: `x` is what is not in it
            ({"w": IntAtom(1)}, 0),  # an atom where a list is bound: never equal
            ({"x": [IntAtom(2)]}, 0),  # and a list where an atom is
            ({"elsewhere": Symbol("A"), "x": IntAtom(3)}, 1),
        ],
    )
    def test_a_given_variable_and_omega_are_held_to(self, initial, matches):
        patterns = [Var("x", kind="int"), TuplePattern(SymbolPattern("T"), SolutionPattern(Var("x"), rest=Omega("w")))]
        rule = _probe(patterns, initial=initial)
        level = Multiset([1, 2, 3, TupleAtom([Symbol("T"), Subsolution([1, 2])]), TupleAtom([Symbol("T"), Subsolution([2, 3])]), rule])
        assert len(_matches(rule, level)) == matches
        assert walk_the_relation(level)["probe"] == bool(matches)

    def test_the_owner_is_told_by_identity(self):
        """Rules are equal by name: a twin of the reacting rule is an atom like any other."""
        rule, twin = Rule("r", [RulePattern(bind_as="k")], []), Rule("r", [Var("k")], [])
        assert twin == rule and twin is not rule
        level = Multiset([rule, twin])
        assert ReductionEngine().reduce(level).rule_fires == {"r": 1}  # the twin is what the rule took ...
        assert level.atoms()[0] is rule and len(level) == 1  # ... and never itself


# ------------------------------------------------------------------ the text
def _fresh_gw_pass_like(name):
    """A rule of ``gw_pass``'s shape on fresh pattern objects and other names."""
    patterns = [
        TuplePattern(Var("a", kind="symbol"), SolutionPattern(TuplePattern(SymbolPattern("OUT"), SolutionPattern(Var("v"), rest=Omega("w1"))), rest=Omega("w2"))),
        TuplePattern(Var("b", kind="symbol"), SolutionPattern(TuplePattern(SymbolPattern("FROM"), SolutionPattern(Var("a", kind="symbol"), rest=Omega("w3"))), rest=Omega("w4"))),
    ]  # fmt: skip
    return Rule(name, patterns, [])


_IN_A_CHILD = """
import sys
from repro.hocl import deltas
from repro import GinFlow, adaptive_diamond_workflow
from repro.scenarios import build_scenario
workflow = adaptive_diamond_workflow(4, 4, "full", "simple", duration=0.01) if sys.argv[1] == "adapt" else build_scenario("montage:size=60,seed=1")
report = GinFlow().run(workflow, mode=sys.argv[2], nodes=5)
assert report.succeeded
compiled = [factory.__code__.co_filename for factory in deltas._FACTORIES.values()]
print(sum(name.startswith("<hocl-reaction ") for name in compiled), len(compiled))
"""

_SOURCES = """
import hashlib
from repro.agents.local_rules import GW_CALL, GW_PASS
from repro.hocl import Omega, Rule, RulePattern, SolutionPattern, TuplePattern, Var
from repro.hocl.deltas import Reaction
from repro.hoclflow.generic_rules import GW_SETUP, make_gw_pass
odd = Rule("odd", [SolutionPattern(Var("zeta"), Var("alpha"), RulePattern("r", "beta"), rest=Omega("ω")), TuplePattern(Var("x y"), Var("alpha"), rest=Omega("tail"))], [])
for rule in (GW_SETUP, GW_CALL, GW_PASS, make_gw_pass(), odd):
    print(hashlib.sha1(Reaction._write(rule)[0].encode()).hexdigest())
"""


def _child(script, *args, hash_seed="0"):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestTheGeneratedText:
    def test_one_text_and_one_code_object_per_shape(self):
        first, second = _fresh_gw_pass_like("first"), _fresh_gw_pass_like("second")
        assert not hasattr(first.reaction, "__source__")  # nothing is written before the rule reacts
        for rule in (first, second):
            assert ReductionEngine().reduce(Multiset([TupleAtom([Symbol("T"), Subsolution()]), rule])).reactions == 0
        assert first.reaction.__source__ == second.reaction.__source__
        assert first.reaction.run is not second.reaction.run and first.reaction.run.__code__ is second.reaction.run.__code__
        assert first.reaction.run.__code__.co_filename.startswith("<hocl-reaction first #")  # named after the rule that reacted first
        # the names, symbols and keys of a left-hand side are not in its shape's text; its variable names are
        assert "OUT" not in first.reaction.__source__ and "FROM" not in first.reaction.__source__
        gw_pass = make_gw_pass()
        ReductionEngine().reduce(Multiset([TupleAtom([Symbol("T"), Subsolution()]), gw_pass]))
        assert gw_pass.reaction.__source__ != first.reaction.__source__

    def test_nothing_is_generated_until_the_first_search(self):
        """A rule's reaction is written when it first reacts, named after that
        rule (the variable names, which its text holds, are this test's own)."""
        rule = Rule("late", [Var("late_x", kind="int"), Var("late_y", kind="symbol")], [])
        assert not hasattr(rule.reaction, "__source__")
        assert ReductionEngine().reduce(Multiset([1, Symbol("A"), rule])).reactions == 1
        code = rule.reaction.run.__code__
        assert code.co_filename.startswith("<hocl-reaction late #") and "v_late_x" in rule.reaction.__source__
        assert ReductionEngine().reduce(Multiset([rule])).reactions == 0 and rule.reaction.run.__code__ is code

    def test_the_text_does_not_depend_on_the_hash_seed(self):
        texts = {_child(_SOURCES, hash_seed=seed) for seed in ("0", "1", "4242")}
        assert len(texts) == 1 and len(texts.pop().split()) == 5

    @pytest.mark.parametrize("workload, mode", [("adapt", "simulated"), ("montage", "simulated"), ("montage", "centralized")])
    def test_a_whole_run_compiles_a_handful(self, workload, mode):
        """One text per shape of rule: its reaction, which searches and fires
        (7 and 14 texts while a search was generated beside it)."""
        reactions, compiled = map(int, _child(_IN_A_CHILD, workload, mode).split())
        assert reactions == compiled == {"adapt": 7, "montage": 3}[workload]

    def test_a_raising_external_shows_the_fire_and_the_line(self):
        """A product's external raising as the rule fires: the traceback shows
        the generated reaction and the line of it that called the external."""
        registry = default_registry()
        registry.register("boom", lambda args, _bindings: 1 // (args[0].value - 2))
        rule = Rule("boom", [Var("x", kind="int")], [Call("boom", Ref("x"))])
        with pytest.raises(ReductionError, match="'boom' failed") as raised:
            ReductionEngine(externals=registry).reduce(Multiset([2, rule]))
        shown = "".join(traceback.format_exception(raised.type, raised.value, raised.tb))
        assert 'File "<hocl-reaction boom #' in shown and "ZeroDivisionError" in shown
        assert "p3 = coerce(externals.invoke('boom', [(v_x.copy() if v_x._mutable else v_x)], b))" in shown

    def test_past_twenty_nested_blocks(self):
        """CPython compiles twenty statically nested blocks at most: a deeper
        left-hand side goes on in a nested function — memories opened there,
        variables bound outside it, the first match fired in it."""

        def cell(index, value):
            return TupleAtom([Symbol(f"H{index}"), value])

        patterns = [TuplePattern(SymbolPattern(f"H{index}"), Var(f"x{index}")) for index in range(20)]
        patterns += [Var("x3", kind="int"), TuplePattern(Var("h"), Var("x5")), Var("s", kind="symbol"), SolutionPattern(Var("x7"), rest=Omega("w"))]  # fmt: skip
        atoms = [cell(index, index) for index in range(20)] + [cell(3, 33), cell(5, 3), IntAtom(3), IntAtom(33)]
        atoms += [IntAtom(5), Symbol("A"), Subsolution([7, 8]), Subsolution([9]), Subsolution([8, 7])]
        for initial in (None, {"x7": IntAtom(7)}, {"w": [IntAtom(8)]}, {"x3": IntAtom(33)}):
            for condition in (None, Compare("!=", Ref("x3"), IntAtom(3))):
                rule = _probe(patterns, condition, initial)
                walk_the_relation(Multiset([*(atom.copy() for atom in atoms), rule]))
                assert "def deeper():" in rule.reaction.__source__
        wide = [TuplePattern(SymbolPattern("T"), SolutionPattern(*map(Literal, range(40)), Var("y"), rest=Omega("w"))), Var("y", kind="int")]
        rule = _probe(wide)
        level = Multiset([TupleAtom([Symbol("T"), Subsolution([*range(40), 43, 44, 50])]), 43, 44, rule])
        assert len(_matches(rule, level)) == 2
        walk_the_relation(level)
        assert rule.reaction.__source__.count("def deeper():") == 2


# ------------------------------------------------------------------ no state
def _central_solution(width):
    return encode_workflow(diamond_workflow(width, 1)).to_multiset()


#: what the centralised rules call, every service answering with its task's name
_EXTERNALS = register_workflow_externals(default_registry(), lambda task, _service, _parameters: task)


def _with_results(solution):
    """Give every task a result, so that ``gw_pass`` has many matches."""
    for task in [atom for atom in solution if isinstance(atom, TupleAtom)]:
        task.elements[1].solution.find_tuple("RES").elements[1].solution.add("done")
    return solution


class TestNoStateOnTheCompiledForm:
    def test_late_entries_are_read_again_for_every_outer_candidate(self):
        """Two memory-backed patterns: the second memory is iterated once per
        candidate of the first, in bucket order, while entries that came back out
        of turn wait apart, and one refuted again leaves them."""
        patterns = [
            TuplePattern(Var("h"), SolutionPattern(Var("x", kind="int"))),
            TuplePattern(Var("k"), SolutionPattern(Var("y", kind="int"))),
        ]
        held = [Multiset([index] if index < 40 else []) for index in range(46)]
        solution = Multiset([TupleAtom([Symbol(f"T{index}"), Subsolution(body)]) for index, body in enumerate(held)])
        engine = ReductionEngine()
        solution.add(Rule("none", patterns, [], condition=Compare("==", Ref("h"), Symbol("none"))))  # searches all, refutes six
        assert engine.reduce(solution).reactions == 0
        for index in (44, 42, 43):
            held[index].add(index)
        held[41].add(Symbol("S"))  # back, and refuted again by the first search that reads it
        memories = [solution.memory_for(pattern, pattern.index_key()) for pattern in patterns]
        assert [memory.late for memory in memories] == [[solution.live_entries()[index] for index in (41, 42, 43, 44)]] * 2
        assert engine.reduce(solution).reactions == 0
        assert all(len(memory.late) == 3 for memory in memories)  # not the refuted one
        solution.add(_probe(patterns, name="second"))  # which fires at the first match, the late ones read in turn
        assert walk_the_relation(solution)["second"] == 1

    def test_eight_threads_on_one_compiled_rule_body(self):
        solutions = [_with_results(_central_solution(width)) for width in range(2, 10)]
        expected = []
        for solution in solutions:
            reduced = solution.copy()
            ReductionEngine(externals=_EXTERNALS).reduce(reduced)
            expected.append(canon(reduced))
        seen, errors = {}, []

        def worker(index):
            try:
                for _ in range(20):
                    reduced = solutions[index].copy()
                    ReductionEngine(externals=_EXTERNALS).reduce(reduced)
                    seen[index] = canon(reduced)
                    assert seen[index] == expected[index]
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:1]
        assert sorted(seen) == list(range(8))


# ----------------------------------------------------------------- lazy omega
@pytest.fixture
def remainder_copies(monkeypatch):
    """Count the remainders copied, by the rule reacting (``None``: by anything else)."""
    copies, reacting = Counter(), [None]
    remainder = Multiset.remainder

    def counted(self, used):
        copies[reacting[0]] += 1
        return remainder(self, used)

    def by(run, solution, owner, *rest):
        reacting[0] = owner.name
        try:
            return run(solution, owner, *rest)
        finally:
            reacting[0] = None

    monkeypatch.setattr(Multiset, "remainder", counted)
    watch_reactions(monkeypatch, by)
    return copies


class TestOmegaIsBoundOnDemand:
    @pytest.mark.parametrize("width", [32, 512])
    @pytest.mark.parametrize("mode", ["simulated", "centralized"])
    def test_no_remainder_is_copied_for_a_gw_pass_firing(self, remainder_copies, mode, width):
        report = GinFlow().run(diamond_workflow(width, 1, duration=0.01), mode=mode, nodes=25)
        assert report.succeeded
        assert report.extra["rule_fires"]["gw_pass"] == 2 * width  # local or centralised: one per edge
        assert remainder_copies["gw_pass"] == 0 and remainder_copies[None] == 0
        # what is copied is what somebody reads: IN for gw_setup's parameter list ...
        assert remainder_copies["gw_setup"] == width + 2
        # ... and not RES, which the external gw_call is handed with every
        # binding, centralised: it runs before the fire's first edit, and reads none
        assert remainder_copies["gw_call"] == 0

    @staticmethod
    def _drain(effect=None, products=()):
        """``BAG : <x, w>`` -> ``BAG : <w>``, patched in place: ``x`` leaves the bag ``w`` views."""
        return Rule(
            "drain",
            [TuplePattern(SymbolPattern("BAG"), SolutionPattern(Var("x", kind="int"), rest=Omega("w")))],
            [TupleTemplate(Symbol("BAG"), SolutionTemplate(Splice("w"))), *products],
            effect=effect,
        )

    @staticmethod
    def _bag():
        return TupleAtom([Symbol("BAG"), Subsolution([1, 2, 3])])

    def test_an_effect_reads_the_pre_reaction_remainder(self):
        rule = self._drain(effect=lambda w: [w])
        report = ReductionEngine().reduce(Multiset([self._bag(), rule]))
        assert report.effects == [[2, 3], [3], []] and report.reactions == 3

    def test_nobody_reads_nothing_is_copied(self, remainder_copies):
        assert ReductionEngine().reduce(Multiset([self._bag(), self._drain()])).reactions == 3
        assert not remainder_copies

    def test_a_read_after_the_solution_changed_raises(self):
        """An external is handed every binding, an ω pending: read while it
        runs, it is the remainder; first read after the fire changed the
        solution, it raises."""
        views, registry = [], default_registry()
        registry.register("keep", lambda args, bindings: views.append((bindings, bindings.value("w") if not views else None)))
        rule = self._drain(products=[Call("keep", Ref("x"))])
        assert ReductionEngine(externals=registry, max_steps=2).reduce(Multiset([self._bag(), rule])).reactions == 2
        (early, read), (late, _) = views
        assert read == [2, 3] and early["w"] == [IntAtom(2), IntAtom(3)]  # read before: kept
        assert "w" in late and len(late) == 2  # nothing copied to say so
        with pytest.raises(PatternError, match="omega 'w' read after"):
            late.atom("w")
        assert late["x"] == IntAtom(2)  # everything else still reads


# ------------------------------------------------------- patterns from outside
class Even(Pattern):
    """A pattern class the engine does not ship: an even integer, bound to
    ``name``, and its half, bound to ``half_<name>``.  It writes its own lines."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def emit(self, out, atom):
        out.line(f"if {self.reject(out, atom)} or {atom}.value % 2: continue")
        out.bind(self.name, atom)
        half = out.local("half")
        out.line(f"{half} = {out.const(IntAtom)}({atom}.value // 2)")
        out.bind(f"half_{self.name}", half)

    def reject(self, out, atom):
        return f"{atom}.kind != 'int'"

    def bound_names(self):
        return {self.name, f"half_{self.name}"}

    def index_key(self):
        return ("kind", "int")


class EvenChemistry(Chemistry):
    """The relation, told what :class:`Even` means."""

    def match(self, pattern, value, env):
        if not isinstance(pattern, Even):
            yield from super().match(pattern, value, env)
        elif getattr(value, "kind", None) == "int" and value.value % 2 == 0:
            for bound in _bound(env, pattern.name, value):
                yield from _bound(bound, f"half_{pattern.name}", IntAtom(value.value // 2))


def _even_matches(rule, level):
    return list(EvenChemistry().matches(rule, canon(level)[1]))


class TestAPatternClassOfTheCallersOwn:
    def test_it_is_matched_through_its_own_lines(self):
        rule = _probe([Var("x", kind="int"), TuplePattern(SymbolPattern("T"), Even("x"), Even("y"))])
        level = Multiset([2, 4, TupleAtom([Symbol("T"), 4, 6]), TupleAtom([Symbol("T"), 3, 6]), rule])
        ((bindings, _taken),) = _even_matches(rule, level)
        assert bindings == {"x": IntAtom(4), "half_x": IntAtom(2), "y": IntAtom(6), "half_y": IntAtom(3)}
        assert walk_the_relation(level, chemistry=EvenChemistry()) == {"probe": 1}

    @pytest.mark.parametrize(
        "initial, matches",
        [(None, 2), ({"x": IntAtom(4)}, 2), ({"half_y": IntAtom(3)}, 2), ({"half_y": IntAtom(2)}, 0), ({"x": IntAtom(6)}, 0)],
    )
    def test_what_it_binds_holds_before_and_after_it(self, initial, matches):
        """Its bindings are the environment from there on: a variable it binds
        holds a later pattern to it, and one bound before (or given) holds it."""
        patterns = [Even("x"), TuplePattern(SymbolPattern("T"), Var("x"), Even("y")), Var("half_y"), Even("x")]
        rule = _probe(patterns, initial=initial)
        level = Multiset([2, 4, 3, 6, 4, TupleAtom([Symbol("T"), 4, 6]), TupleAtom([Symbol("T"), 2, 4]), rule])
        assert len(_even_matches(rule, level)) == matches
        assert walk_the_relation(level, chemistry=EvenChemistry())["probe"] == bool(matches)

    def test_a_refuted_candidate_is_not_matched(self):
        """Clock-free: what its pre-check (``reject``) refutes costs that test —
        the search does not go on into the candidate to fail there."""
        asked = []

        class Counted(Even):
            __slots__ = ()

            def emit(self, out, atom):
                out.line(f"{out.const(asked.append)}({atom})")
                Even.emit(self, out, atom)

        rule = Rule("halve", [TuplePattern(Var("h"), Counted("x"))], [Ref("half_x")])  # head-less: a memory, so the pre-check runs
        atoms = [TupleAtom([Symbol("A"), Symbol("no")]), TupleAtom([Symbol("B"), 4]), TupleAtom([Symbol("C"), Symbol("no")])]
        level = Multiset([*atoms, rule])
        assert ReductionEngine().reduce(level).rule_fires == {"halve": 1}
        assert asked == [IntAtom(4)] and level.count(IntAtom(2)) == 1

    def test_a_search_that_raises_half_way_keeps_the_refutations_so_far(self):
        """The memory is iterated in place and told what was refuted when the
        search ends — also when it ends by an exception, here raised by the
        lines a pattern class of the caller's own writes."""

        class Raising(Pattern):
            __slots__ = ()

            def emit(self, out, atom):
                out.line(f"if {out.held('x')} == {out.const(IntAtom(2))}: raise ValueError('half-way')")
                out.line("continue")  # matches nothing

        head_less = TuplePattern(Var("h"), Var("x", kind="int"))  # a memory on the tuple bucket
        atoms = [TupleAtom([Symbol(name), 1 if name == "B" else 2 if name == "D" else Symbol("no")]) for name in "ABCDE"]
        raising = Rule("raising", [head_less, Raising()], [])
        level = Multiset([*atoms, raising])
        memory = level.memory_for(head_less, head_less.index_key())

        def plausible():
            return "".join(entry.atom.elements[0].name for entry in memory.snapshot())

        with pytest.raises(ValueError, match="half-way"):  # at D, the fourth candidate
            ReductionEngine().reduce(level)
        assert plausible() == "BDE"  # A and C refuted on the way, E never read
        # a later search on the same pattern goes on from there, then the raising one again
        level.add(Rule("none", [head_less], [], condition=Compare("==", Ref("h"), Symbol("none")), priority=1))
        with pytest.raises(ValueError, match="half-way"):
            ReductionEngine().reduce(level)
        assert plausible() == "BD"

    def test_past_twenty_nested_blocks_too(self):
        """In the nested function of a deep left-hand side: a variable bound
        outside it, compared inside it, and bound again past the class's lines."""
        patterns = [TuplePattern(SymbolPattern(f"H{index}"), Var(f"x{index}")) for index in range(20)]
        patterns += [Var("x3", kind="int"), Even("e"), Var("x3"), Var("half_e")]
        atoms = [TupleAtom([Symbol(f"H{index}"), index]) for index in range(20)] + [IntAtom(3), IntAtom(3), IntAtom(6), IntAtom(4), IntAtom(2)]
        for initial in (None, {"x3": IntAtom(3)}, {"e": IntAtom(4)}, {"e": IntAtom(6)}):
            rule = _probe(patterns, initial=initial)
            level = Multiset([*atoms, rule])
            matches = _even_matches(rule, level)
            assert len(matches) == (0 if initial == {"e": IntAtom(6)} else 2)  # half of 6 is taken twice already
            assert walk_the_relation(level, chemistry=EvenChemistry())["probe"] == bool(matches)
            assert "def deeper():" in rule.reaction.__source__

    def test_it_fires_in_a_rule(self):
        halve = Rule("halve", [Even("n")], [Ref("half_n")])
        solution = Multiset([12, 5, halve])
        assert walk_the_relation(solution, chemistry=EvenChemistry()) == {"halve": 2}
        assert sorted(atom.value for atom in solution if atom.kind != "rule") == [3, 5]

    def test_one_that_writes_no_code_is_refused(self):
        class Nothing(Pattern):
            __slots__ = ()

        with pytest.raises(NotImplementedError, match="Nothing"):
            Rule("nothing", [Nothing()], [])
