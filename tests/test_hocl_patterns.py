"""Unit tests for patterns and multiset-level matching: what HOCL's one-step
relation (``hocl_semantics.py``) says matches, and the engine's reaction
firing exactly where something does."""

import pytest

from hocl_semantics import Chemistry, build, canon
from repro.hocl import (
    Compare,
    IntAtom,
    Literal,
    Multiset,
    Omega,
    PatternError,
    ReductionEngine,
    Ref,
    Rule,
    RulePattern,
    SolutionPattern,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    TupleTemplate,
    Var,
)


def _atoms(env):
    return {name: [build(item) for item in bound] if isinstance(bound, list) else build(bound) for name, bound in env.items()}


def matches(pattern, atom, bindings=None):
    """Every environment under which ``pattern`` matches ``atom``; the engine
    fires a rule of that one pattern on that one atom just when there is one."""
    given = {name: canon(value) for name, value in (bindings or {}).items()}
    found = [_atoms(env) for env in Chemistry().match(pattern, canon(atom), given)]
    probe = Rule("probe", [pattern], [], priority=1, given=bindings)
    report = ReductionEngine(max_steps=1).reduce(Multiset([atom.copy(), probe]))
    assert report.rule_fires.get("probe", 0) == bool(found)
    return found


def level_matches(patterns, solution, condition=None, given=None):
    """Every match of ``patterns`` among the atoms of ``solution``, as environments."""
    rule = Rule("probe", patterns, [], condition=condition, given=given)
    return [_atoms(env) for env, _taken in Chemistry().matches(rule, canon(solution)[1])]


def fired(patterns, solution, given=None):
    """What the engine's reaction of ``patterns`` binds where it fires in ``solution``, and the atoms it took."""
    names = sorted({name for pattern in patterns for name in pattern.bound_names()} | set(given or {}))
    record = TupleTemplate(Symbol("FIRED"), *map(Ref, names))
    before = list(solution)
    rule = Rule("probe", patterns, [record], one_shot=True, given=given)
    solution.add(rule)
    report = ReductionEngine().reduce(solution)
    if not report.reactions:
        solution.remove_identical(rule)
        return None, []
    record = solution.find_tuple("FIRED")
    solution.remove_identical(record)
    left = {id(atom) for atom in solution}
    return dict(zip(names, record.elements[1:])), [atom for atom in before if id(atom) not in left]


class TestVar:
    def test_binds_any_atom(self):
        result = matches(Var("x"), IntAtom(3))
        assert result == [{"x": IntAtom(3)}]

    def test_kind_constraint(self):
        assert matches(Var("x", kind="int"), IntAtom(1))
        assert not matches(Var("x", kind="int"), Symbol("A"))

    def test_number_kind_accepts_floats_and_ints(self):
        assert matches(Var("x", kind="number"), IntAtom(1))
        assert not matches(Var("x", kind="number"), Symbol("A"))

    def test_consistent_rebinding(self):
        # same variable must match equal atoms
        assert matches(Var("x"), IntAtom(1), {"x": IntAtom(1)})
        assert not matches(Var("x"), IntAtom(2), {"x": IntAtom(1)})

    def test_empty_name_rejected(self):
        with pytest.raises(PatternError):
            Var("")


class TestLiteralAndSymbol:
    def test_literal_matches_equal(self):
        assert matches(Literal(3), IntAtom(3))

    def test_literal_rejects_different(self):
        assert not matches(Literal(3), IntAtom(4))

    def test_symbol_pattern(self):
        assert matches(SymbolPattern("ADAPT"), Symbol("ADAPT"))
        assert not matches(SymbolPattern("ADAPT"), Symbol("ERROR"))


class TestOmega:
    def test_cannot_match_single_atom(self):
        with pytest.raises(PatternError):
            Rule("r", [Omega("w")], [])

    def test_empty_name_rejected(self):
        with pytest.raises(PatternError):
            Omega("")


class TestTuplePattern:
    def test_positional_match(self):
        pattern = TuplePattern(SymbolPattern("SRC"), Var("body"))
        atom = TupleAtom([Symbol("SRC"), Subsolution([1])])
        result = matches(pattern, atom)
        assert result[0]["body"] == Subsolution([1])

    def test_arity_mismatch(self):
        pattern = TuplePattern(Var("a"), Var("b"))
        assert not matches(pattern, TupleAtom([1]))

    def test_rest_captures_remaining(self):
        pattern = TuplePattern(SymbolPattern("MVSRC"), rest=Omega("rest"))
        atom = TupleAtom([Symbol("MVSRC"), Symbol("T4"), Symbol("T2")])
        result = matches(pattern, atom)
        assert result[0]["rest"] == [Symbol("T4"), Symbol("T2")]

    def test_rejects_non_tuple(self):
        assert not matches(TuplePattern(Var("a")), IntAtom(1))

    def test_omega_in_elements_rejected(self):
        with pytest.raises(PatternError):
            TuplePattern(Omega("w"))


class TestSolutionPattern:
    def test_exact_match_without_rest(self):
        pattern = SolutionPattern(Literal(1), Literal(2))
        assert matches(pattern, Subsolution([2, 1]))  # order-insensitive
        assert not matches(pattern, Subsolution([1, 2, 3]))

    def test_empty_pattern_matches_only_empty(self):
        assert matches(SolutionPattern(), Subsolution())
        assert not matches(SolutionPattern(), Subsolution([1]))

    def test_rest_captures_unmatched(self):
        pattern = SolutionPattern(Literal(1), rest=Omega("w"))
        result = matches(pattern, Subsolution([1, 2, 3]))
        assert sorted(a.value for a in result[0]["w"]) == [2, 3]

    def test_positional_omega(self):
        pattern = SolutionPattern(Literal(1), Omega("w"))
        result = matches(pattern, Subsolution([1, 5]))
        assert result[0]["w"] == [IntAtom(5)]

    def test_two_omegas_rejected(self):
        with pytest.raises(PatternError):
            SolutionPattern(Omega("a"), Omega("b"))

    def test_distinct_atoms_per_element(self):
        # two element patterns cannot match the same atom occurrence
        pattern = SolutionPattern(Var("x", kind="int"), Var("y", kind="int"))
        assert not matches(pattern, Subsolution([1]))
        assert matches(pattern, Subsolution([1, 2]))
        assert not matches(SolutionPattern(Var("x"), Var("x"), rest=Omega("w")), Subsolution([1, 2]))

    def test_rejects_non_solution(self):
        assert not matches(SolutionPattern(), IntAtom(1))


class TestRulePattern:
    def test_matches_rule_by_name(self):
        rule = Rule("max", [Var("x")], [])
        assert matches(RulePattern(name="max"), rule)
        assert not matches(RulePattern(name="other"), rule)

    def test_binds_rule(self):
        rule = Rule("max", [Var("x")], [])
        result = matches(RulePattern(bind_as="r"), rule)
        assert result[0]["r"] is rule

    def test_rejects_non_rule(self):
        assert not matches(RulePattern(), IntAtom(1))


class TestMultisetMatching:
    def test_find_matches_distinct_atoms(self):
        # 2 permutations
        assert len(level_matches([Var("x", kind="int"), Var("y", kind="int")], Multiset([1, 2]))) == 2

    def test_consumed_identity(self):
        solution = Multiset([1, 2])
        second = solution.atoms()[1]
        assert fired([Literal(2)], solution)[1][0] is second

    def test_condition_filters(self):
        found = level_matches([Var("x", kind="int"), Var("y", kind="int")], Multiset([1, 2]), Compare(">", Ref("x"), Ref("y")))
        assert found == [{"x": IntAtom(2), "y": IntAtom(1)}]

    def test_initial_bindings_respected(self):
        bindings, _taken = fired([Var("x")], Multiset([1, 2]), given={"x": IntAtom(2)})
        assert bindings["x"] == IntAtom(2)

    def test_count_matches(self):
        assert len(level_matches([Var("x", kind="int")], Multiset([1, 2, 3]))) == 3

    def test_no_match_returns_none(self):
        assert fired([Literal(9)], Multiset([1])) == (None, [])

    def test_cross_pattern_variable_consistency(self):
        # gw_pass-style consistency: same variable in two patterns
        solution = Multiset(
            [
                TupleAtom([Symbol("T1"), Symbol("RES")]),
                TupleAtom([Symbol("T2"), Symbol("T1")]),
            ]
        )
        patterns = [
            TuplePattern(Var("ti", kind="symbol"), SymbolPattern("RES")),
            TuplePattern(Var("tj", kind="symbol"), Var("ti", kind="symbol")),
        ]
        bindings, _taken = fired(patterns, solution)
        assert bindings == {"ti": Symbol("T1"), "tj": Symbol("T2")}
