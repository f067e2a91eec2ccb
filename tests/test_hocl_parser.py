"""Unit tests for the HOCL ASCII parser."""

import pytest

from repro.hocl import (
    Compare,
    FloatAtom,
    IntAtom,
    ListAtom,
    ParseError,
    Ref,
    StringAtom,
    Subsolution,
    Symbol,
    reduce_solution,
)
from repro.hocl.parser import parse_program, parse_solution


class TestSolutionLiterals:
    def test_empty_solution(self):
        assert len(parse_solution("<>")) == 0

    def test_numbers(self):
        solution = parse_solution("<1, 2.5, -3>")
        assert IntAtom(1) in solution
        assert IntAtom(-3) in solution

    def test_strings(self):
        solution = parse_solution('<"hello world">')
        assert StringAtom("hello world") in solution

    def test_symbols(self):
        solution = parse_solution("<ADAPT, T1>")
        assert solution.has_symbol("ADAPT")
        assert solution.has_symbol("T1")

    def test_nested_solutions(self):
        solution = parse_solution("<<1, 2>, 3>")
        assert len(solution.subsolutions()) == 1

    def test_tuples(self):
        solution = parse_solution("<SRC : <T1, T2>>")
        field = solution.find_tuple("SRC")
        assert field is not None
        assert isinstance(field.elements[1], Subsolution)

    def test_lists(self):
        solution = parse_solution("<[1, 2, 3]>")
        assert ListAtom([1, 2, 3]) in solution

    def test_comments_ignored(self):
        solution = parse_solution("<1, # a comment\n 2>")
        assert len(solution) == 2

    def test_primes_in_names(self):
        solution = parse_solution("<T2'>")
        assert solution.has_symbol("T2'")


class TestRuleDefinitions:
    def test_simple_replace_rule(self):
        program = parse_program("let max = replace x, y by x if x >= y in <2, 9, max>")
        assert "max" in program.rules
        assert program.rules["max"].one_shot is False
        reduce_solution(program.solution)
        assert IntAtom(9) in program.solution

    def test_replace_one_is_one_shot(self):
        program = parse_program("let once = replace-one x by x in <1, once>")
        assert program.rules["once"].one_shot is True

    def test_with_inject_sugar(self):
        program = parse_program("let w = with ERROR inject ADAPT in <ERROR, w>")
        rule = program.rules["w"]
        assert rule.one_shot and rule.keep_matched
        reduce_solution(program.solution)
        assert program.solution.has_symbol("ADAPT")
        assert program.solution.has_symbol("ERROR")

    def test_condition_operators(self):
        for operator in ("<", ">", "=="):
            source = f"let r = replace-one x, y by x if x {operator} y in <2, 9, r>"
            program = parse_program(source)
            reduce_solution(program.solution)

    def test_string_condition(self):
        program = parse_program('let r = replace-one x by DONE if x == "go" in <"go", r>')
        reduce_solution(program.solution)
        assert program.solution.has_symbol("DONE")

    def test_a_condition_is_a_compare_of_atoms(self):
        condition = parse_program('let r = replace x by x if x != 2.5 in <r>').rules["r"].condition
        assert isinstance(condition, Compare) and condition.op == "!="
        assert isinstance(condition.left, Ref) and condition.left.name == "x" and condition.right == FloatAtom(2.5)
        sides = [parse_program(f"let r = replace x by x if x == {side} in <r>").rules["r"].condition.right for side in ("3", '"A"', "A")]
        assert sides == [IntAtom(3), StringAtom("A"), Symbol("A")] and type(sides[2]) is Symbol

    def test_a_symbol_is_never_equal_to_a_string(self):
        """As nowhere else in the engine: the symbol ``A`` does not equal the string ``"A"``."""
        program = parse_program('let r = replace-one x by DONE if x == A in <"A", r>')
        reduce_solution(program.solution)
        assert not program.solution.has_symbol("DONE") and StringAtom("A") in program.solution
        program = parse_program("let r = replace-one x by DONE if x == A in <A, r>")
        reduce_solution(program.solution)
        assert program.solution.has_symbol("DONE")

    def test_omega_in_pattern_and_product(self):
        program = parse_program("let clean = replace-one <DONE, ?w> by ?w in <<1, 2, DONE>, clean>")
        reduce_solution(program.solution)
        assert IntAtom(1) in program.solution
        assert IntAtom(2) in program.solution
        assert not program.solution.has_symbol("DONE")

    def test_rule_reference_in_later_definition(self):
        source = (
            "let max = replace x, y by x if x >= y in "
            "let clean = replace-one <max, ?w> by ?w in "
            "<<2, 3, 5, 8, 9, max>, clean>"
        )
        program = parse_program(source)
        reduce_solution(program.solution)
        assert len(program.solution) == 1
        assert IntAtom(9) in program.solution

    def test_function_call_in_product(self):
        program = parse_program("let mk = replace-one x, y by list(x, y) in <1, 2, mk>")
        reduce_solution(program.solution)
        assert any(isinstance(a, ListAtom) for a in program.solution.atoms())

    def test_uppercase_names_are_symbols_in_patterns(self):
        program = parse_program("let r = replace-one ERROR by FIXED in <ERROR, r>")
        reduce_solution(program.solution)
        assert program.solution.has_symbol("FIXED")

    def test_tuple_pattern_and_product(self):
        source = "let r = replace-one SRC : <> by SRC : <T9> in <SRC : <>, r>"
        program = parse_program(source)
        reduce_solution(program.solution)
        field = program.solution.find_tuple("SRC")
        assert Symbol("T9") in field.elements[1].solution


class TestErrors:
    def test_missing_in_keyword(self):
        with pytest.raises(ParseError):
            parse_program("let r = replace x by x <1>")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_program("<1 @ 2>")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_program("<1> <2>")

    def test_missing_solution(self):
        with pytest.raises(ParseError):
            parse_program("let r = replace x by x in 42")

    def test_unclosed_solution(self):
        with pytest.raises(ParseError):
            parse_program("<1, 2")

    def test_bad_condition_operator(self):
        with pytest.raises(ParseError):
            parse_program("let r = replace x by x if x ~ 1 in <1, r>")

    def test_error_reports_line(self):
        try:
            parse_program("<1,\n @>")
        except ParseError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected ParseError")
