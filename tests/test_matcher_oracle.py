"""The generated matcher against the interpreter it replaced.

``repro.hocl`` writes each rule's left-hand side once as the source of one flat
search function (:func:`repro.hocl.matching.compiled_search`) and binds ω on
demand (:class:`repro.hocl.BindingView`).  The interpreter it replaced lives on
in ``tests/matcher_reference.py``; everything here holds the generated form to
it or to the contract the engine relies on:

* differential, on random pattern trees and solutions: same matches, in the
  same order, with the same bindings and the same memory refutations, under
  ``initial_bindings`` and ``pinned`` (``GINFLOW_FULL`` raises
  the example count);
* the text: one per shape whatever the pattern objects and the hash seed, one
  ``compile()`` per text, a handful per run, readable in a traceback, and past
  CPython's twenty nested blocks;
* no state on the generated form: a condition that searches its own rule, and
  eight threads searching one generated left-hand side at once;
* ω laziness, counted not timed: no remainder is copied for a ``gw_pass``
  firing, local or centralised, whatever the fan-in; the rebuild path still
  splices the right lists; an effect or an observer reads the pre-reaction
  remainder; a read after the solution changed raises;
* a pattern class of the caller's own is matched through its ``match``.
"""

import os
import subprocess
import sys
import threading
import traceback
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import matcher_reference
from reduction_reference import RebuildEngine
from repro import GinFlow, diamond_workflow
from repro.hocl import (
    BindingView,
    IntAtom,
    Literal,
    Multiset,
    Omega,
    Pattern,
    PatternError,
    ReductionEngine,
    Ref,
    Rule,
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
    find_first_match,
    find_matches,
)
from repro.hocl import matching as matching_module
from repro.hocl import patterns as patterns_module
from repro.hocl.matching import compiled_search, first_match
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
    if pattern.rest is not None:
        items += draw(st.lists(_ATOMS, max_size=2))
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

_CONDITIONS = st.sampled_from(
    [
        None,
        lambda b: "x" not in b or b["x"] != IntAtom(1),
        lambda b: len(b.get("w", ())) != 1 if isinstance(b.get("w"), list) else True,
    ]
)


def _refutations(patterns, solution):
    """Per broad-keyed pattern, the positions its memory still holds."""
    position = {entry: index for index, entry in enumerate(solution.live_entries())}
    held = {}
    for index, pattern in enumerate(patterns):
        memory = (solution._memories or {}).get(pattern)
        if memory is not None:
            held[index] = sorted(position[entry] for entry in memory.snapshot())
    return held


def _twins(ours, theirs, twins=None):
    """id of each entry, atom and solution of the level ``ours`` -> the one at
    its place in ``theirs`` (built alike: a copy holds no solution of the other)."""
    twins = {} if twins is None else twins
    twins[id(ours)] = theirs
    for mine, other in zip(ours.live_entries(), theirs.live_entries()):
        twins[id(mine)] = other
        pairs = [(mine.atom, other.atom)]
        while pairs:
            atom, twin = pairs.pop()
            twins[id(atom)] = twin
            if isinstance(atom, Subsolution):
                _twins(atom.solution, twin.solution, twins)
            elif isinstance(atom, TupleAtom):
                pairs += zip(atom.elements, twin.elements)
    return twins


def _same(found, expected, ours, theirs):
    """Same matches in the same order, of the levels ``ours`` and ``theirs``
    (built alike): the same atoms, bindings and sites — the top-level entries
    by their place, what was consumed and the sites below by their twins."""
    assert len(found) == len(expected)
    twin = _twins(ours, theirs)
    for mine, other in zip(found, expected):
        assert [id(twin[id(atom)]) for atom in mine.consumed] == [id(atom) for atom in other.consumed]
        top = len(mine.consumed)
        assert [(entry.atom, entry.seq) for entry in mine.sites[:top]] == [
            (entry.atom, entry.seq) for entry in other.sites[:top]
        ]
        assert all(entry.atom is atom for entry, atom in zip(mine.sites, mine.consumed))
        assert [id(twin[id(site)]) for site in mine.sites[top:]] == list(map(id, other.sites[top:]))
        assert isinstance(mine.bindings, BindingView)
        assert dict(mine.bindings) == dict(other.bindings)


class TestAgainstTheInterpreter:
    @given(
        program=_programs(),
        condition=_CONDITIONS,
        initial=_INITIAL,
        pinned=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.lists(st.integers(0, 5), max_size=3, unique=True))),
    )
    @settings(max_examples=_EXAMPLES, deadline=None)
    def test_same_matches_same_order_same_refutations(self, program, condition, initial, pinned):
        patterns, atoms = program
        ours = Multiset(atoms)
        theirs = ours.copy()  # the same atoms, two sets of entries
        pin, pinned_ours, pinned_theirs = None, (), ()
        if pinned is not None and pinned[0] < len(patterns):
            pin = pinned[0]
            positions = sorted(position for position in pinned[1] if position < len(atoms))
            pinned_ours = [ours.live_entries()[position] for position in positions]
            pinned_theirs = [theirs.live_entries()[position] for position in positions]
        found = list(find_matches(patterns, ours, condition, initial, pinned=pin, pinned_entries=pinned_ours))
        expected = matcher_reference.search(
            patterns, theirs, condition, initial, pin, pinned_theirs, keys=[pattern.index_key() for pattern in patterns]
        )
        _same(found, expected, ours, theirs)
        assert _refutations(patterns, ours) == _refutations(patterns, theirs)
        if pin is None:
            fresh = ours.copy()
            first = find_first_match(patterns, fresh, condition, initial)
            _same([first] if first else [], expected[:1], fresh, theirs)

    @pytest.mark.parametrize(
        "patterns, atoms, matches",
        [
            # two elements of one solution pattern never take the same occurrence
            ([SolutionPattern(Var("x"), Var("y"), rest=Omega("w"))], [Subsolution([1, 2, 2])], 6),
            # a repeated variable, top level and nested
            ([Var("x", kind="int"), TuplePattern(SymbolPattern("T"), Var("x"))], [1, 2, TupleAtom([Symbol("T"), 2]), 2], 2),
            # one omega name for a tuple's rest and a solution's remainder: equal lists only
            (
                [TuplePattern(Var("h"), rest=Omega("w")), SolutionPattern(Literal(0), rest=Omega("w"))],
                [TupleAtom([Symbol("A"), 1, 2]), TupleAtom([Symbol("B"), 1]), Subsolution([0, 1, 2]), Subsolution([1, 0])],
                2,
            ),
            # an omega name that is also a variable never binds both
            ([Var("w"), SolutionPattern(rest=Omega("w"))], [1, Subsolution([1])], 0),
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
        ours = Multiset(atoms)
        theirs = ours.copy()
        found = list(find_matches(patterns, ours))
        _same(found, matcher_reference.search(patterns, theirs), ours, theirs)
        assert len(found) == matches
        assert _refutations(patterns, ours) == _refutations(patterns, theirs)

    def test_the_owner_is_told_by_identity(self):
        """Rules are equal by name: a twin of the searching rule is an atom like any other."""
        rule, twin = Rule("r", [RulePattern(bind_as="k")], []), Rule("r", [Var("k")], [])
        assert twin == rule and twin is not rule
        found = first_match(rule, Multiset([rule, twin]))
        assert found is not None and found.consumed[0] is twin
        assert first_match(rule, Multiset([rule])) is None

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
    def test_initial_bindings_hold_a_variable_and_an_omega_name(self, initial, matches):
        patterns = [Var("x", kind="int"), TuplePattern(SymbolPattern("T"), SolutionPattern(Var("x"), rest=Omega("w")))]
        ours = Multiset([1, 2, 3, TupleAtom([Symbol("T"), Subsolution([1, 2])]), TupleAtom([Symbol("T"), Subsolution([2, 3])])])
        theirs = ours.copy()
        found = list(find_matches(patterns, ours, None, initial))
        _same(found, matcher_reference.search(patterns, theirs, None, initial), ours, theirs)
        assert len(found) == matches
        for match in found:  # what was given stays bound to what was given
            assert all(match.bindings[name] is bound for name, bound in initial.items())
        assert _refutations(patterns, ours) == _refutations(patterns, theirs)

    def test_a_condition_that_raises_half_way_keeps_the_refutations_so_far(self):
        """The memory is iterated in place and told what was refuted when the
        search ends — also when it ends by an exception."""
        patterns = [TuplePattern(Var("h"), Var("x", kind="int"))]  # head-less: a memory on the tuple bucket
        atoms = [TupleAtom([Symbol("A"), Symbol("no")]), TupleAtom([Symbol("B"), 1]), TupleAtom([Symbol("C"), Symbol("no")]),
                 TupleAtom([Symbol("D"), 2]), TupleAtom([Symbol("E"), Symbol("no")])]  # fmt: skip
        ours, theirs = Multiset(atoms), Multiset(atoms)

        def condition(bindings):
            if bindings["x"] == IntAtom(2):
                raise ValueError("half-way")
            return True

        for search, solution in ((find_matches, ours), (matcher_reference.search, theirs)):
            with pytest.raises(ValueError, match="half-way"):
                search(patterns, solution, condition)
        assert _refutations(patterns, ours) == _refutations(patterns, theirs) == {0: [1, 3, 4]}
        assert ours.memory_for(patterns[0], patterns[0].index_key()).readers == 0
        _same(list(find_matches(patterns, ours)), matcher_reference.search(patterns, theirs), ours, theirs)  # and goes on from there
        assert _refutations(patterns, ours) == {0: [1, 3]}

    @given(
        program=_programs(),
        rounds=st.lists(st.lists(st.integers(0, 11), max_size=3), max_size=3),
        condition=_CONDITIONS,
    )
    @settings(max_examples=_EXAMPLES // 2, deadline=None)
    def test_what_returns_out_of_turn_is_read_in_turn(self, program, rounds, condition):
        """Between searches something changes below some atoms, so their entries
        return to the memories out of turn: every search still finds what a search
        of a fresh level of the same atoms finds, in the same order, and refutes
        what the interpreter refutes."""
        patterns, atoms = program
        ours = Multiset(atoms)
        theirs = ours.copy()
        holders = [
            [held for atom in level if atom._mutable for held in _held_solutions(atom)] for level in (ours, theirs)
        ]
        keys = [pattern.index_key() for pattern in patterns]
        for changes in [[], *rounds]:
            for change in changes:
                for held in holders:  # the same change below both levels
                    if held:
                        held[change % len(held)].add(IntAtom(change % 3))
            fresh = ours.copy()
            found = list(find_matches(patterns, ours, condition))
            _same(found, list(find_matches(patterns, fresh, condition)), ours, fresh)
            _same(found, matcher_reference.search(patterns, theirs, condition, keys=keys), ours, theirs)
            assert _refutations(patterns, ours) == _refutations(patterns, theirs)

    @given(program=_programs())
    @settings(max_examples=_EXAMPLES // 2, deadline=None)
    def test_a_rule_never_matches_itself(self, program):
        patterns, atoms = program
        rule = Rule("r", patterns, [], condition=lambda b: "y" not in b or b["y"] != Symbol("A"))
        ours = Multiset([*atoms, rule])
        theirs = ours.copy()  # a rule copies as itself
        found, expected = first_match(rule, ours), matcher_reference.first_match(rule, theirs)
        _same([found] if found else [], [expected] if expected else [], ours, theirs)
        assert _refutations(patterns, ours) == _refutations(patterns, theirs)

    @given(pattern=_PATTERNS, atom=_ATOMS, initial=_INITIAL)
    @settings(max_examples=_EXAMPLES // 2, deadline=None)
    def test_one_pattern_on_one_atom(self, pattern, atom, initial):
        expected = list(matcher_reference.match(pattern, atom, dict(initial or {})))
        assert [dict(found) for found in pattern.match(atom, initial or {})] == expected


# ------------------------------------------------------------------ the text
def _fresh_gw_pass_like():
    """A left-hand side of ``gw_pass``'s shape on fresh pattern objects and other names."""
    return [
        TuplePattern(Var("a", kind="symbol"), SolutionPattern(TuplePattern(SymbolPattern("OUT"), SolutionPattern(Var("v"), rest=Omega("w1"))), rest=Omega("w2"))),
        TuplePattern(Var("b", kind="symbol"), SolutionPattern(TuplePattern(SymbolPattern("FROM"), SolutionPattern(Var("a", kind="symbol"), rest=Omega("w3"))), rest=Omega("w4"))),
    ]  # fmt: skip


_IN_A_CHILD = """
import sys
from repro.hocl import matching
loaded, load = [], matching._load
def counted(text, filename):
    loaded.append(filename)
    return load(text, filename)
matching._load = counted
from repro import GinFlow, adaptive_diamond_workflow
from repro.scenarios import build_scenario
workflow = adaptive_diamond_workflow(4, 4, "full", "simple", duration=0.01) if sys.argv[1] == "adapt" else build_scenario("montage:size=60,seed=1")
report = GinFlow().run(workflow, mode=sys.argv[2], nodes=5)
assert report.succeeded
print(len(loaded))
"""

_SOURCES = """
import hashlib
from repro.agents.local_rules import GW_CALL, GW_PASS
from repro.hocl import Omega, RulePattern, SolutionPattern, TuplePattern, Var
from repro.hocl.matching import compiled_search
from repro.hoclflow.generic_rules import GW_SETUP, make_gw_pass
odd = [SolutionPattern(Var("zeta"), Var("alpha"), RulePattern("r", "beta"), rest=Omega("ω")), TuplePattern(Var("x y"), Var("alpha"), rest=Omega("tail"))]
for patterns in (GW_SETUP.patterns, GW_CALL.patterns, GW_PASS.patterns, make_gw_pass().patterns, odd):
    print(hashlib.sha1(compiled_search(patterns).__source__.encode()).hexdigest())
"""


def _child(script, *args, hash_seed="0"):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestTheGeneratedText:
    @pytest.fixture
    def loads(self, monkeypatch):
        """The file names handed to the one place that compiles, with nothing compiled yet."""
        loaded, load = [], matching_module._load

        def counted(text, filename):
            loaded.append(filename)
            return load(text, filename)

        monkeypatch.setattr(matching_module, "_FACTORIES", {})
        monkeypatch.setattr(matching_module, "_load", counted)
        return loaded

    def test_one_text_and_one_compile_per_shape(self, loads):
        first, second = compiled_search(_fresh_gw_pass_like()), compiled_search(_fresh_gw_pass_like())
        assert first is not second and loads == []  # nothing is written before something searches
        assert first.__source__ == second.__source__ and len(loads) == 1
        assert first.run is not second.run and first.run.__code__ is second.run.__code__
        # the names, symbols and keys of a left-hand side are not in its shape's text ...
        assert "OUT" not in first.__source__ and "FROM" not in first.__source__
        gw_pass = make_gw_pass()
        assert gw_pass.search.__source__ != first.__source__  # ... its variable names are
        assert len(loads) == 2
        # and a text compiled before costs a look-up
        assert compiled_search(make_gw_pass().patterns).__source__ == gw_pass.search.__source__ and len(loads) == 2

    def test_nothing_is_generated_until_the_first_search(self, loads):
        rule = Rule("late", [Var("x", kind="int"), Var("y", kind="symbol")], [])
        assert loads == []
        assert first_match(rule, Multiset([1, Symbol("A"), rule])) is not None
        assert len(loads) == 1 and loads[0].startswith("<hocl-lhs late #")  # named after the rule that searched first
        assert first_match(rule, Multiset([rule])) is None and len(loads) == 1

    def test_the_text_does_not_depend_on_the_hash_seed(self):
        texts = {_child(_SOURCES, hash_seed=seed) for seed in ("0", "1", "4242")}
        assert len(texts) == 1 and len(texts.pop().split()) == 5

    @pytest.mark.parametrize(
        "workload, mode, most, least",
        [("adapt", "simulated", 8, 4), ("montage", "simulated", 3, 3), ("montage", "centralized", 3, 3)],
    )
    def test_a_whole_run_compiles_a_handful(self, workload, mode, most, least):
        assert least <= int(_child(_IN_A_CHILD, workload, mode)) <= most

    def test_a_raising_condition_shows_the_rule_and_the_line(self, loads):
        """(The rule that searched a shape first: rules of one shape share its text, and so its name.)"""

        def condition(bindings):
            return 1 // (bindings.value("x") - 2) > 0

        rule = Rule("boom", [Var("x", kind="int")], [], condition=condition)
        with pytest.raises(ZeroDivisionError) as raised:
            ReductionEngine().reduce(Multiset([3, 2, rule]))
        shown = "".join(traceback.format_exception(raised.type, raised.value, raised.tb))
        assert 'File "<hocl-lhs boom #' in shown
        assert "if condition is not None and not condition(b): continue" in shown

    def test_past_twenty_nested_blocks(self):
        """CPython compiles twenty statically nested blocks at most: a deeper
        left-hand side goes on in a nested function — memories opened there,
        variables bound outside it, the first match returned through it."""

        def cell(index, value):
            return TupleAtom([Symbol(f"H{index}"), value])

        patterns = [TuplePattern(SymbolPattern(f"H{index}"), Var(f"x{index}")) for index in range(20)]
        patterns += [Var("x3", kind="int"), TuplePattern(Var("h"), Var("x5")), Var("s", kind="symbol"), SolutionPattern(Var("x7"), rest=Omega("w"))]  # fmt: skip
        atoms = [cell(index, index) for index in range(20)] + [cell(3, 33), cell(5, 3), IntAtom(3), IntAtom(33)]
        atoms += [IntAtom(5), Symbol("A"), Subsolution([7, 8]), Subsolution([9]), Subsolution([8, 7])]
        level = Multiset(atoms)
        assert "def deeper():" in compiled_search(patterns).__source__
        for initial in (None, {"x7": IntAtom(7)}, {"w": [IntAtom(8)]}, {"x3": IntAtom(33)}):
            for condition in (None, lambda b: b["x3"] != IntAtom(3)):
                ours, theirs, fresh = level.copy(), level.copy(), level.copy()
                found = list(find_matches(patterns, ours, condition, initial))
                expected = matcher_reference.search(patterns, theirs, condition, initial)
                _same(found, expected, ours, theirs)
                assert _refutations(patterns, ours) == _refutations(patterns, theirs)
                first = find_first_match(patterns, fresh, condition, initial)
                _same([first] if first else [], expected[:1], fresh, theirs)
        assert len(list(find_matches(patterns, level))) == 2
        wide = [TuplePattern(SymbolPattern("T"), SolutionPattern(*map(Literal, range(40)), Var("y"), rest=Omega("w"))), Var("y", kind="int")]
        assert compiled_search(wide).__source__.count("def deeper():") == 2
        ours = Multiset([TupleAtom([Symbol("T"), Subsolution([*range(40), 43, 44, 50])]), 43, 44])
        theirs = ours.copy()
        found = list(find_matches(wide, ours))
        _same(found, matcher_reference.search(wide, theirs), ours, theirs)
        assert [match.bindings.value("y") for match in found] == [43, 44]


# ------------------------------------------------------------------ no state
def _central_solution(width):
    return encode_workflow(diamond_workflow(width, 1)).to_multiset()


def _with_results(solution):
    """Give every task a result, so that ``gw_pass`` has many matches."""
    for task in [atom for atom in solution if isinstance(atom, TupleAtom)]:
        task.elements[1].solution.find_tuple("RES").elements[1].solution.add("done")
    return solution


class TestNoStateOnTheCompiledForm:
    def test_a_condition_that_searches_its_own_rule(self):
        patterns = [Var("x", kind="int"), Var("y", kind="int")]
        solution = Multiset([1, 2, 3, 4])
        plain = [dict(match.bindings) for match in find_matches(patterns, solution)]
        inner = []

        def condition(bindings):
            if bindings["x"] == IntAtom(2):  # mid-search: run the same compiled search again
                inner.append([dict(match.bindings) for match in find_matches(patterns, solution)])
            return True

        assert [dict(match.bindings) for match in find_matches(patterns, solution, condition)] == plain
        assert len(plain) == 12 and len(inner) == 3 and all(again == plain for again in inner)

    def test_a_search_inside_a_search_may_refute(self):
        """Both iterate one plausible-candidate memory in place: what the inner
        search refutes must not pull entries from under the outer one."""
        patterns = [TuplePattern(Var("h"), Var("x", kind="int"))]
        atoms = [TupleAtom([Symbol(name), value]) for name, value in zip("ABCDEF", [1, Symbol("no"), 2, Symbol("no"), 3, Symbol("no")])]
        solution, plain = Multiset(atoms), Multiset(atoms)
        expected = [dict(match.bindings) for match in find_matches(patterns, plain)]
        inner = []

        def condition(bindings):
            inner.append([dict(match.bindings) for match in find_matches(patterns, solution)])
            return True

        assert [dict(match.bindings) for match in find_matches(patterns, solution, condition)] == expected
        assert len(expected) == 3 and inner == [expected] * 3
        assert _refutations(patterns, solution) == _refutations(patterns, plain) == {0: [0, 2, 4]}
        assert solution.memory_for(patterns[0], patterns[0].index_key()).readers == 0

    def test_late_entries_are_read_again_for_every_outer_candidate_and_inside_a_search(self):
        """Two memory-backed patterns: the second memory is iterated once per
        candidate of the first, in bucket order, while entries that came back out
        of turn wait apart — also under a search run from inside the search, which
        refutes a late entry the outer reads are already past the head of."""
        patterns = [
            TuplePattern(Var("h"), SolutionPattern(Var("x", kind="int"))),
            TuplePattern(Var("k"), SolutionPattern(Var("y", kind="int"))),
        ]
        held = [Multiset([index] if index < 40 else []) for index in range(46)]
        atoms = [TupleAtom([Symbol(f"T{index}"), Subsolution(solution)]) for index, solution in enumerate(held)]
        solution = Multiset(atoms)
        assert len(list(find_matches(patterns, solution))) == 40 * 39  # and the six empty tuples refuted
        for index in (44, 42, 43):
            held[index].add(index)
        held[41].add(Symbol("S"))  # back, and refuted again by the first search that reads it
        memories = [solution.memory_for(pattern, pattern.index_key()) for pattern in patterns]
        assert [memory.late for memory in memories] == [[solution.live_entries()[index] for index in (41, 42, 43, 44)]] * 2
        level = solution.copy()
        fresh = list(find_matches(patterns, level))
        inner = []

        def condition(_bindings):
            if not inner:
                inner.append(list(find_matches(patterns, solution)))
            return True

        found = list(find_matches(patterns, solution, condition))
        assert len(found) == 43 * 42 and all(len(memory.late) == 3 for memory in memories)  # not the refuted one
        _same(found, fresh, solution, level)
        _same(inner[0], fresh, solution, level)
        reference = solution.copy()
        _same(list(find_matches(patterns, solution)), matcher_reference.search(patterns, reference), solution, reference)
        assert all(memory.readers == 0 for memory in memories)

    def test_eight_threads_on_one_compiled_left_hand_side(self):
        gw_pass = make_gw_pass()
        search = compiled_search(gw_pass.patterns)
        assert search is gw_pass.search  # built on the same pattern objects: the same search
        solutions = [_with_results(_central_solution(width)) for width in range(2, 10)]
        expected = [
            [[str(atom) for atom in match.consumed] for match in matcher_reference.search(gw_pass.patterns, solution)]
            for solution in solutions
        ]
        assert all(len(matches) == 2 * width for matches, width in zip(expected, range(2, 10)))
        seen, errors = {}, []

        def worker(index):
            try:
                for _ in range(20):
                    found = search(solutions[index], gw_pass.guarded_condition)
                    seen[index] = [[str(atom) for atom in match.consumed] for match in found]
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
    """Count the remainders copied, by the rule being applied (``None``: while searching)."""
    copies, applying = Counter(), [None]
    read = patterns_module._Rest.read

    def counted_read(self, name):
        copies[applying[0]] += 1
        return read(self, name)

    def tracked(apply):
        def tracked_apply(self, rule, *args):
            applying[0] = rule.name
            try:
                return apply(self, rule, *args)
            finally:
                applying[0] = None

        return tracked_apply

    monkeypatch.setattr(patterns_module._Rest, "read", counted_read)
    for engine in (ReductionEngine, RebuildEngine):
        monkeypatch.setattr(engine, "_apply", tracked(engine._apply))
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
        # ... and, centralised, RES for the external gw_call hands its bindings to
        assert remainder_copies["gw_call"] == (width + 2 if mode == "centralized" else 0)

    def test_the_rebuild_path_still_splices_the_right_lists(self, remainder_copies):
        patched, rebuilt = _central_solution(6), _central_solution(6)
        externals = register_workflow_externals(default_registry(), lambda task, service, parameters: task)
        assert ReductionEngine(externals=externals).reduce(patched).inert
        assert remainder_copies["gw_pass"] == 0
        assert RebuildEngine(externals=externals).reduce(rebuilt).inert
        assert remainder_copies["gw_pass"] == 6 * 12  # six omegas spliced per firing
        assert rebuilt.content_hash() == patched.content_hash()
        assert rebuilt == patched

    @staticmethod
    def _drain(effect=None):
        """``BAG : <x, w>`` -> ``BAG : <w>``, patched in place: ``x`` leaves the bag ``w`` views."""
        return Rule(
            "drain",
            [TuplePattern(SymbolPattern("BAG"), SolutionPattern(Var("x", kind="int"), rest=Omega("w")))],
            [TupleTemplate(Symbol("BAG"), SolutionTemplate(Splice("w")))],
            effect=effect,
        )

    @staticmethod
    def _bag():
        return TupleAtom([Symbol("BAG"), Subsolution([1, 2, 3])])

    def test_an_effect_reads_the_pre_reaction_remainder(self):
        rule = self._drain(effect=lambda bindings: [bindings.value("w")])
        report = ReductionEngine().reduce(Multiset([self._bag(), rule]))
        assert report.effects == [[2, 3], [3], []] and report.reactions == 3

    def test_an_observer_reads_the_pre_reaction_remainder(self):
        seen = []
        engine = ReductionEngine(observer=lambda rule, match, depth: seen.append(match.bindings.value("w")))
        assert engine.reduce(Multiset([self._bag(), self._drain()])).reactions == 3
        assert seen == [[2, 3], [3], []]

    def test_nobody_reads_nothing_is_copied(self, remainder_copies):
        assert ReductionEngine().reduce(Multiset([self._bag(), self._drain()])).reactions == 3
        assert not remainder_copies

    def test_a_read_after_the_solution_changed_raises(self):
        bag = self._bag()
        solution = Multiset([bag])
        early, late = (find_first_match(self._drain().patterns, solution) for _ in range(2))
        assert "w" in early.bindings and len(early.bindings) == 2  # neither copies
        assert early.bindings["w"] == [IntAtom(2), IntAtom(3)]
        bag.elements[1].solution.remove(2)
        assert early.bindings["w"] == [IntAtom(2), IntAtom(3)]  # read before: kept
        with pytest.raises(PatternError, match="omega 'w' read after"):
            late.bindings.atom("w")
        with pytest.raises(PatternError, match="omega 'w' read after"):
            dict(late.bindings)
        assert late.bindings["x"] == IntAtom(1)  # everything else still reads


# ------------------------------------------------------- patterns from outside
class Even(Pattern):
    """A pattern class the compiler does not know: even integers, halved."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def match(self, atom, bindings):
        if atom.kind == "int" and atom.value % 2 == 0 and bindings.get(self.name, atom) == atom:
            yield {**bindings, self.name: atom, f"half_{self.name}": IntAtom(atom.value // 2)}

    def index_key(self):
        return ("kind", "int")


class TestAPatternClassOfTheCallersOwn:
    def test_it_is_matched_through_its_own_match(self):
        patterns = [Var("x", kind="int"), TuplePattern(SymbolPattern("T"), Even("x"), Even("y"))]
        solution = Multiset([2, 4, TupleAtom([Symbol("T"), 4, 6]), TupleAtom([Symbol("T"), 3, 6])])
        found = list(find_matches(patterns, solution))
        _same(found, matcher_reference.search(patterns, solution), solution, solution)
        assert [dict(match.bindings) for match in found] == [
            {"x": IntAtom(4), "half_x": IntAtom(2), "y": IntAtom(6), "half_y": IntAtom(3)}
        ]

    @pytest.mark.parametrize("initial", [None, {"x": IntAtom(4)}, {"half_y": IntAtom(3)}, {"half_y": IntAtom(2)}, {"x": IntAtom(6)}])
    def test_what_it_binds_holds_before_and_after_it(self, initial):
        """Its extensions are the environment from there on: a variable it
        binds holds a later pattern to it, one bound before holds it."""
        patterns = [Even("x"), TuplePattern(SymbolPattern("T"), Var("x"), Even("y")), Var("half_y"), Even("x")]
        ours = Multiset([2, 4, 3, 6, 4, TupleAtom([Symbol("T"), 4, 6]), TupleAtom([Symbol("T"), 2, 4])])
        theirs = ours.copy()
        found = list(find_matches(patterns, ours, None, initial))
        _same(found, matcher_reference.search(patterns, theirs, None, initial), ours, theirs)
        assert _refutations(patterns, ours) == _refutations(patterns, theirs)
        # (`Even` rebinds its `half_` name whatever it was: an extension is taken as it comes)
        assert len(found) == (0 if initial == {"x": IntAtom(6)} else 2)

    def test_a_refuted_candidate_is_not_matched(self):
        """Clock-free: what ``quick_reject`` refutes costs that one call — the
        search does not go on into the candidate to fail there."""
        asked = []

        class Counted(Even):
            __slots__ = ()

            def match(self, atom, bindings):
                asked.append(atom)
                return Even.match(self, atom, bindings)

            def quick_reject(self, atom):
                return atom.kind != "int"

        patterns = [TuplePattern(Var("h"), Counted("x"))]  # head-less: a memory, so `quick_reject` is asked
        atoms = [TupleAtom([Symbol("A"), Symbol("no")]), TupleAtom([Symbol("B"), 4]), TupleAtom([Symbol("C"), Symbol("no")])]
        solution = Multiset(atoms)
        assert [match.bindings.value("half_x") for match in find_matches(patterns, solution)] == [2]
        assert asked == [IntAtom(4)]
        assert _refutations(patterns, solution) == {0: [1]}

    def test_past_twenty_nested_blocks_too(self):
        """In the nested function of a deep left-hand side: a variable bound
        outside it, compared inside it, and bound again past the subclass's loop."""
        patterns = [TuplePattern(SymbolPattern(f"H{index}"), Var(f"x{index}")) for index in range(20)]
        patterns += [Var("x3", kind="int"), Even("e"), Var("x3"), Var("half_e")]
        atoms = [TupleAtom([Symbol(f"H{index}"), index]) for index in range(20)] + [IntAtom(3), IntAtom(3), IntAtom(6), IntAtom(4), IntAtom(2)]
        assert "def deeper():" in compiled_search(patterns).__source__
        for initial in (None, {"x3": IntAtom(3)}, {"e": IntAtom(4)}, {"e": IntAtom(6)}):
            ours = Multiset(atoms)
            theirs = ours.copy()
            found = list(find_matches(patterns, ours, None, initial))
            _same(found, matcher_reference.search(patterns, theirs, None, initial), ours, theirs)
            assert _refutations(patterns, ours) == _refutations(patterns, theirs)
            assert len(found) == (0 if initial == {"e": IntAtom(6)} else 2)  # half of 6 is taken twice already

    def test_it_fires_in_a_rule(self):
        halve = Rule("halve", [Even("n")], [Ref("half_n")])
        solution = Multiset([12, 5, halve])
        assert ReductionEngine().reduce(solution).reactions == 2
        assert sorted(atom.value for atom in solution if atom.kind != "rule") == [3, 5]

    def test_one_that_defines_nothing_is_refused(self):
        class Nothing(Pattern):
            __slots__ = ()

        with pytest.raises(NotImplementedError, match="Nothing"):
            Rule("nothing", [Nothing()], [])
