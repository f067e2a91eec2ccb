"""Unit tests for patterns and multiset-level matching."""

import pytest

from repro.hocl import (
    Compare,
    IntAtom,
    Literal,
    Multiset,
    Omega,
    PatternError,
    Ref,
    Rule,
    RulePattern,
    SolutionPattern,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    Var,
    count_matches,
    find_first_match,
    find_matches,
)


def matches(pattern, atom, bindings=None):
    return list(pattern.match(atom, bindings or {}))


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
            list(Omega("w").match(IntAtom(1), {}))

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
        solution = Multiset([1, 2])
        found = list(find_matches([Var("x", kind="int"), Var("y", kind="int")], solution))
        # 2 permutations
        assert len(found) == 2

    def test_consumed_identity(self):
        solution = Multiset([1, 2])
        match = find_first_match([Literal(2)], solution)
        assert match.consumed[0] is solution.atoms()[1]

    def test_condition_filters(self):
        solution = Multiset([1, 2])
        found = list(
            find_matches(
                [Var("x", kind="int"), Var("y", kind="int")],
                solution,
                condition=Compare(">", Ref("x"), Ref("y")),
            )
        )
        assert len(found) == 1

    def test_initial_bindings_respected(self):
        solution = Multiset([1, 2])
        match = find_first_match([Var("x")], solution, initial_bindings={"x": IntAtom(2)})
        assert match.bindings["x"] == IntAtom(2)

    def test_count_matches(self):
        assert count_matches([Var("x", kind="int")], Multiset([1, 2, 3])) == 3

    def test_no_match_returns_none(self):
        assert find_first_match([Literal(9)], Multiset([1])) is None

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
        match = find_first_match(patterns, solution)
        assert match is not None
        assert match.bindings["ti"] == Symbol("T1")
        assert match.bindings["tj"] == Symbol("T2")
