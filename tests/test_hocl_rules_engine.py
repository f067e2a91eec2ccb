"""Unit tests for rules, templates, externals and the reduction engine."""

import pytest

from hocl_semantics import Chemistry, canon, norm
from reduction_reference import NaiveEngine

from repro.hocl import (
    Call,
    Compare,
    ExternalFunctionError,
    ExternalRegistry,
    FloatAtom,
    IntAtom,
    ListAtom,
    ListTemplate,
    Literal,
    Multiset,
    Omega,
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
    StringAtom,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TupleTemplate,
    Var,
    default_registry,
    reduce_solution,
    replace,
    replace_one,
    with_inject,
)
from repro.hocl.multiset import atom_index_keys


def max_rule():
    return Rule(
        "max",
        [Var("x", kind="int"), Var("y", kind="int")],
        [Ref("x")],
        condition=Compare(">=", Ref("x"), Ref("y")),
    )


def _held_and_registry():
    """A tuple holding a solution, the level holding it, externals handing
    it back, and bindings naming it (``x``, ``one``) or a list of it (``w``)."""
    held = TupleAtom([Symbol("T"), Subsolution([1])])
    level = Multiset([held])
    registry = default_registry()
    registry.register("atom", lambda args, _bindings: held)
    registry.register("atoms", lambda args, _bindings: [held])
    registry.register("value", lambda args, _bindings: [held, 2])  # a list of values: one ListAtom
    return held, level, registry, {"x": held, "w": [held], "one": held}


def expand(template, bindings, registry=None):
    """What ``template`` expands to under ``bindings``: the products of one
    reaction of a rule given them, held to the relation's expansion
    (``hocl_semantics.py``) of the same template.  Where the fire raises, it
    leaves the solution as it was and the relation's error is raised."""
    rule = Rule("expand", [SymbolPattern("GO")], [template], given=bindings)
    env = {name: [canon(atom) for atom in bound] if isinstance(bound, list) else canon(bound) for name, bound in rule.given.items()}
    solution = Multiset([Symbol("GO"), rule])
    try:
        rule.reaction.run(solution, rule, registry, [], None)
    except ReductionError:
        assert solution.atoms() == [Symbol("GO"), rule]
        Chemistry(registry)._expand_all([template], env)
        raise AssertionError(f"the relation expands {template!r}, which the fire refused") from None
    solution.remove_identical(rule)
    (products,) = Chemistry(registry)._expand_all([template], env)  # nothing given is a solution's ω
    assert canon(solution) == norm(("sol", tuple(products)))
    return solution.atoms()


class TestTemplates:
    """Each template, expanded by a rule's generated fire and by the relation."""

    def test_ref_expands_bound_atom(self):
        assert expand(Ref("x"), {"x": IntAtom(1)}) == [IntAtom(1)]

    def test_ref_unbound_raises(self):
        with pytest.raises(PatternError):
            expand(Ref("x"), {})

    def test_ref_on_omega_binding_raises(self):
        with pytest.raises(PatternError):
            expand(Ref("w"), {"w": [IntAtom(1)]})

    def test_splice_expands_list(self):
        assert expand(Splice("w"), {"w": [IntAtom(1), IntAtom(2)]}) == [IntAtom(1), IntAtom(2)]

    def test_splice_single_value(self):
        assert expand(Splice("w"), {"w": IntAtom(1)}) == [IntAtom(1)]

    def test_tuple_template(self):
        atoms = expand(TupleTemplate(Symbol("SRC"), Splice("w")), {"w": [IntAtom(1)]})
        assert atoms[0].elements == (Symbol("SRC"), IntAtom(1))

    def test_solution_template(self):
        atoms = expand(SolutionTemplate(1, 2), {})
        assert atoms[0] == Subsolution([1, 2])

    def test_list_template(self):
        atoms = expand(ListTemplate(1, Splice("w")), {"w": [IntAtom(2)]})
        assert atoms[0] == ListAtom([1, 2])

    def test_call_requires_registry(self):
        with pytest.raises(ExternalFunctionError):
            expand(Call("list", 1), {})

    def test_call_invokes_registered_function(self):
        registry = default_registry()
        atoms = expand(Call("list", 1, 2), {}, registry)
        assert atoms == [ListAtom([1, 2])]

    def test_call_none_produces_nothing(self):
        registry = default_registry()
        registry.register("nothing", lambda args, _bindings: None)
        assert expand(Call("nothing"), {}, registry) == []

    def test_call_value_coerced(self):
        registry = default_registry()
        registry.register("seven", lambda args, _bindings: 7)
        assert expand(Call("seven"), {}, registry) == [IntAtom(7)]

    @pytest.mark.parametrize(
        "template",
        [Ref("x"), Splice("w"), Splice("one"), Call("atom"), Call("atoms"), Call("value")],
        ids=["Ref", "Splice", "Splice of one", "Call atom", "Call atoms", "Call value"],
    )
    def test_an_expansion_holding_a_solution_is_a_copy(self, template):
        """A solution has one holder: what expansion reads off a binding, or an
        external hands back, joins a solution as a copy."""
        held, level, registry, given = _held_and_registry()
        (atom,) = expand(template, given, registry)
        assert atom == (ListAtom([held, 2]) if getattr(template, "function", None) == "value" else held)
        assert level.atoms() == [held] and held.elements[1].solution._holder[0] is level


class TestTheGeneratedFire:
    """What the interpreted expansion raises, a rule's generated fire raises
    too: through the engine, as a ``ReductionError`` with nothing changed."""

    @pytest.mark.parametrize(
        "product, given, message",
        [
            (Ref("x"), {}, "unbound variable 'x'"),
            (Splice("x"), {}, "unbound omega 'x'"),
            (Ref("v"), {"v": [1]}, "omega binding"),
            (Ref("w"), {}, "omega binding"),  # the left-hand side's omega
            (TupleTemplate(Symbol("T"), Ref("x")), {}, "unbound variable 'x'"),
        ],
        ids=["unbound", "unbound omega", "given omega as Ref", "omega as Ref", "unbound in a tuple"],
    )
    def test_an_expansion_error_arrives_as_a_reduction_error(self, product, given, message):
        rule = Rule("bad", [SolutionPattern(SymbolPattern("GO"), rest=Omega("w"))], [product], given=given)
        solution = Multiset([Subsolution([Symbol("GO")]), rule])
        before = solution.content_hash()
        with pytest.raises(ReductionError, match=message):
            ReductionEngine().reduce(solution)
        assert solution.content_hash() == before

    def test_a_call_with_no_registry_raises(self):
        rule = Rule("call", [SymbolPattern("GO")], [SymbolPattern("GONE").atom, Call("list", 1)])
        solution = Multiset([Symbol("GO"), rule])
        with pytest.raises(ReductionError, match="'list' but no external registry") as raised:
            rule.reaction.run(solution, rule, None, [], None)
        assert isinstance(raised.value.__cause__, ExternalFunctionError)
        assert solution.atoms() == [Symbol("GO"), rule]

    @pytest.mark.parametrize(
        "template",
        [Ref("x"), Splice("w"), Splice("one"), Call("atom"), Call("atoms"), Call("value")],
        ids=["Ref", "Splice", "Splice of one", "Call atom", "Call atoms", "Call value"],
    )
    def test_an_expansion_holding_a_solution_is_a_copy(self, template):
        held, level, registry, given = _held_and_registry()
        solution = Multiset([Symbol("GO"), Rule("make", [SymbolPattern("GO")], [template], given=given)])
        ReductionEngine(externals=registry).reduce(solution)  # a shared solution: `add` refuses it
        (atom,) = [atom for atom in solution if atom.kind != "rule"]
        assert atom == (ListAtom([held, 2]) if getattr(template, "function", None) == "value" else held)
        assert level.atoms() == [held] and held.elements[1].solution._holder[0] is level

    def test_its_text_is_readable(self):
        rule = Rule("pair", [Var("x", kind="int"), Var("y", kind="int")], [TupleTemplate(Ref("x"), Ref("y"))])
        assert ReductionEngine().reduce(Multiset([1, 2, rule])).reactions == 1
        assert "def react(solution, owner, externals, effects, clock):" in rule.reaction.__source__
        assert "TupleAtom([" in rule.reaction.__source__


class TestExternals:
    def test_builtins_present(self):
        registry = default_registry()
        for name in ("list", "concat", "first", "flatten"):
            assert registry.knows(name)

    def test_unknown_function_raises(self):
        with pytest.raises(ExternalFunctionError):
            default_registry().invoke("nope", [], {})

    def test_register_and_invoke(self):
        registry = default_registry()
        registry.register("double", lambda args, b: IntAtom(args[0].value * 2))
        assert registry.invoke("double", [IntAtom(4)], {}) == IntAtom(8)

    def test_register_non_callable_raises(self):
        with pytest.raises(ExternalFunctionError):
            default_registry().register("x", 42)

    def test_failure_wrapped(self):
        registry = default_registry()
        registry.register("boom", lambda args, b: 1 / 0)
        with pytest.raises(ExternalFunctionError):
            registry.invoke("boom", [], {})

    def test_concat(self):
        registry = default_registry()
        result = registry.invoke("concat", [ListAtom([1]), ListAtom([2, 3])], {})
        assert result == ListAtom([1, 2, 3])

    def test_first(self):
        registry = default_registry()
        assert registry.invoke("first", [ListAtom([7, 8])], {}) == IntAtom(7)

    def test_first_empty_raises(self):
        with pytest.raises(ExternalFunctionError):
            default_registry().invoke("first", [ListAtom([])], {})

    def test_flatten(self):
        registry = default_registry()
        result = registry.invoke("flatten", [ListAtom([[1, [2]], 3])], {})
        assert result == ListAtom([1, 2, 3])

    def test_copy_is_independent(self):
        registry = default_registry()
        clone = registry.copy()
        clone.register("only-in-clone", lambda args, b: None)
        assert not registry.knows("only-in-clone")

    def test_unregister(self):
        registry = default_registry()
        registry.unregister("list")
        assert not registry.knows("list")


class TestRuleConstruction:
    def test_requires_name(self):
        with pytest.raises(RuleError):
            Rule("", [Var("x")], [])

    def test_requires_patterns(self):
        with pytest.raises(RuleError):
            Rule("r", [], [])

    def test_replace_is_nshot(self):
        assert replace("r", [Var("x")], []).one_shot is False

    def test_replace_one_is_oneshot(self):
        assert replace_one("r", [Var("x")], []).one_shot is True

    def test_with_inject_keeps_matched(self):
        rule = with_inject("r", [Var("x")], [Symbol("A")])
        assert rule.one_shot and rule.keep_matched

    def test_rules_equal_by_name(self):
        assert Rule("a", [Var("x")], []) == Rule("a", [Var("y")], [])
        assert Rule("a", [Var("x")], []) != Rule("b", [Var("x")], [])

    def test_a_sibling_bound_to_a_name_is_that_rule(self):
        rule = Rule("a", [Var("x")], [Splice("new")])
        held = Multiset([rule])  # the rule's index keys are computed here
        sibling = rule.bind(name="b", new=["A", Symbol("B")])
        assert held.rules() == [rule] and Multiset([sibling]).rules() == [sibling]
        assert sibling.name == "b" and sibling != rule and sibling.delta is rule.delta
        assert sibling.given == {"new": [StringAtom("A"), Symbol("B")]} and rule.given == {}
        assert atom_index_keys(sibling)[0] == ("rule", "b")

    def test_condition_type_error_means_no_match(self):
        solution = Multiset([1, Symbol("A"), 2, max_rule()])
        # the symbol cannot satisfy the arithmetic condition; no crash
        report = reduce_solution(solution)
        assert report.inert


class TestCompare:
    """A condition is data: a comparison the search writes inline."""

    def test_anything_but_a_compare_is_refused(self):
        with pytest.raises(RuleError, match="a condition is a Compare"):
            Rule("r", [Var("x")], [], condition=lambda b: True)
        with pytest.raises(RuleError, match="unknown comparison operator"):
            Compare("=~", Ref("x"), 1)

    def test_a_side_bound_to_an_omega_is_refused_when_the_rule_is_built(self):
        omega = Compare("==", Ref("w"), 1)
        with pytest.raises(RuleError, match="omega binding 'w'"):
            Rule("r", [SolutionPattern(rest=Omega("w"))], [], condition=omega)
        with pytest.raises(RuleError, match="omega binding 'w'"):
            Rule("r", [Var("x")], [], condition=omega, given={"w": [1, 2]})
        with pytest.raises(RuleError, match="omega binding 'w'"):
            Rule("r", [Var("x")], [], condition=omega).bind(w=[1])

    @pytest.mark.parametrize(
        "condition, fires",
        [
            (Compare("==", Ref("x"), IntAtom(2)), [2]),
            (Compare("==", Ref("x"), FloatAtom(2.0)), [2.0]),  # atom equality: an int is no float
            (Compare("!=", Ref("x"), Symbol("A")), [1, 2, 2.0, "A"]),  # a string is no symbol
            (Compare("==", Symbol("A"), Ref("x")), ["A"]),
            (Compare(">=", Ref("x"), 2), [2, 2.0]),  # plain values: an int and a float compare
            (Compare("<", Ref("x"), Ref("nowhere")), []),  # neither bound nor given: no match
            (Compare("!=", Ref("x"), Ref("nowhere")), []),
            (Compare("==", Ref("x"), Ref("x")), [1, 2, 2.0, "A", "A"]),
        ],
    )
    def test_what_a_comparison_holds_for(self, condition, fires):
        fired = []
        rule = replace("r", [Var("x")], [], condition=condition, effect=lambda x: fired.append(x))
        candidates = [IntAtom(1), IntAtom(2), FloatAtom(2.0), Symbol("A"), StringAtom("A")]
        reduce_solution(Multiset([*candidates, rule]))
        assert sorted(map(str, fired)) == sorted(map(str, fires))

    def test_a_given_side_is_read_per_sibling(self):
        rule = replace("r", [Var("x", kind="int")], [], condition=Compare("==", Ref("x"), Ref("wanted")))
        solution = Multiset([1, 2, 3, rule.bind(wanted=2)])
        reduce_solution(solution)
        assert sorted(atom.value for atom in solution.atoms() if isinstance(atom, IntAtom)) == [1, 3]


class TestReduction:
    def test_getmax(self):
        solution = Multiset([2, 3, 5, 8, 9, max_rule()])
        report = reduce_solution(solution)
        assert report.inert
        assert report.reactions == 4
        assert IntAtom(9) in solution
        assert len(solution) == 2  # rule + max value

    def test_one_shot_rule_removed_after_firing(self):
        rule = replace_one("once", [Var("x", kind="int")], [Symbol("DONE")])
        solution = Multiset([1, 2, rule])
        reduce_solution(solution)
        assert solution.has_symbol("DONE")
        assert rule not in solution
        # only one integer consumed
        assert sum(1 for a in solution.atoms() if isinstance(a, IntAtom)) == 1

    def test_with_inject_preserves_matched(self):
        rule = with_inject("inj", [Literal(1)], [Symbol("SEEN")])
        solution = Multiset([1, rule])
        reduce_solution(solution)
        assert 1 in solution
        assert solution.has_symbol("SEEN")

    def test_higher_order_rule_removal(self):
        inner_rule = max_rule()
        clean = replace_one(
            "clean",
            [SolutionPattern(RulePattern(name="max"), rest=Omega("w"))],
            [Splice("w")],
        )
        solution = Multiset([Subsolution([2, 9, inner_rule]), clean])
        reduce_solution(solution)
        assert IntAtom(9) in solution
        assert len(solution) == 1

    def test_nested_solutions_reduce_before_outer(self):
        # the outer rule extracts the content of the inner solution only once
        # the inner solution is inert (i.e. reduced to its maximum).
        extract = replace_one("extract", [SolutionPattern(Var("x", kind="int"), rest=Omega("w"))], [Ref("x")])
        solution = Multiset([Subsolution([3, 7, max_rule()]), extract])
        reduce_solution(solution)
        assert IntAtom(7) in solution

    def test_effect_hook_runs_on_fire(self):
        fired = []
        rule = replace_one("e", [Var("x", kind="int")], [], effect=lambda x: fired.append(x))
        reduce_solution(Multiset([5, rule]))
        assert fired == [5]

    def test_priority_orders_rule_attempts(self):
        order = []
        low = replace_one("low", [Var("x", kind="int")], [], effect=lambda: order.append("low"), priority=0)
        high = replace_one("high", [Var("x", kind="int")], [], effect=lambda: order.append("high"), priority=5)
        reduce_solution(Multiset([1, 2, low, high]))
        assert order[0] == "high"

    def test_max_steps_marks_non_inert(self):
        # a rule that rewrites 1 -> 1 forever
        loop = replace("loop", [Literal(1)], [Literal(1).atom])
        solution = Multiset([1, loop])
        report = ReductionEngine(max_steps=10).reduce(solution)
        assert not report.inert
        assert report.reactions == 10

    def test_inert_is_no_step(self):
        assert Chemistry().inert(canon(Multiset([1, 2])))
        assert not Chemistry().inert(canon(Multiset([1, 2, max_rule()])))

    def test_a_step_limit_of_one_applies_a_single_reaction(self):
        solution = Multiset([1, 2, 3, max_rule()])
        engine = ReductionEngine(max_steps=1)
        assert [engine.reduce(solution).reactions for _ in range(3)] == [1, 1, 0]
        assert solution.count(IntAtom(3)) == 1 and len(solution) == 2

    def test_reduction_inside_tuple_wrapped_solution(self):
        # task sub-solutions live inside tuples; the engine must reduce them
        from repro.hocl import TupleAtom

        solution = Multiset([TupleAtom([Symbol("T1"), Subsolution([1, 4, max_rule()])])])
        report = reduce_solution(solution)
        assert report.reactions == 1

    def test_rule_cannot_consume_itself(self):
        eater = replace("eater", [RulePattern()], [])
        solution = Multiset([eater])
        report = reduce_solution(solution)
        assert report.reactions == 0
        assert eater in solution

    def test_report_history_records_rules(self):
        report = reduce_solution(Multiset([1, 2, max_rule()]))
        assert [r.rule for r in report.history] == ["max"]

    def test_report_merge(self):
        a = reduce_solution(Multiset([1, 2, max_rule()]))
        b = reduce_solution(Multiset([3, 4, max_rule()]))
        a.merge(b)
        assert a.reactions == 2


class TestIncrementalReduction:
    """The incremental engine must be a pure optimisation: identical traces,
    strictly less (re-)matching work, and non-mutating inertness checks."""

    def _workflowish_solution(self):
        """A small nested solution exercising sub-solutions, one-shot rules,
        priorities and higher-order removal in one program."""
        extract = replace_one(
            "extract", [SolutionPattern(Var("x", kind="int"), rest=Omega("w"))], [Ref("x")]
        )
        clean = replace_one(
            "clean", [SolutionPattern(RulePattern(name="max"), rest=Omega("w"))], [Splice("w")]
        )
        return Multiset(
            [
                Subsolution([3, 7, max_rule()]),
                Subsolution([2, 9, 4, max_rule()]),
                Symbol("ADAPT"),
                extract,
                clean,
            ]
        )

    @staticmethod
    def _trace(report):
        return [(r.rule, r.depth, r.consumed, r.produced) for r in report.history]

    def test_identical_history_to_naive_engine(self):
        incremental = self._workflowish_solution()
        naive = self._workflowish_solution()
        report_inc = ReductionEngine().reduce(incremental)
        report_naive = NaiveEngine().reduce(naive)
        assert self._trace(report_inc) == self._trace(report_naive)
        assert incremental == naive
        assert report_inc.match_attempts <= report_naive.match_attempts

    def test_rereducing_inert_solution_is_free(self):
        solution = Multiset([2, 3, 9, max_rule()])
        engine = ReductionEngine()
        engine.reduce(solution)
        again = engine.reduce(solution)
        assert again.reactions == 0
        assert again.match_attempts == 0  # inertness cache short-circuits
        assert again.inert

    def test_mutation_reenables_reduction(self):
        solution = Multiset([2, 9, max_rule()])
        engine = ReductionEngine()
        engine.reduce(solution)
        solution.add(11)
        report = engine.reduce(solution)
        assert report.reactions == 1
        assert IntAtom(11) in solution
        assert IntAtom(9) not in solution

    def test_nested_mutation_reenables_outer_reduction(self):
        extract = replace_one(
            "extract", [SolutionPattern(Var("x", kind="int"), rest=Omega("w"))], []
        )
        inner = Multiset([])
        solution = Multiset([Subsolution(inner), extract])
        engine = ReductionEngine()
        engine.reduce(solution)  # nothing to do: inner is empty
        inner.add(5)  # dirty the nested solution only
        report = engine.reduce(solution)
        assert report.reactions == 1

    def test_index_refuted_rules_are_not_charged(self):
        # `max` needs integers: with none present the indexed engine proves
        # inapplicability from the (empty) int bucket without a search.
        solution = Multiset([Symbol("A"), max_rule()])
        report = ReductionEngine().reduce(solution)
        assert report.match_attempts == 0
        assert report.inert
        naive = NaiveEngine().reduce(Multiset([Symbol("A"), max_rule()]))
        assert naive.match_attempts == 1

    def test_a_single_step_respects_inertness_cache(self):
        solution = Multiset([1, 2, max_rule()])
        engine = ReductionEngine()
        engine.reduce(solution)
        engine.max_steps = 1
        assert engine.reduce(solution).match_attempts == 0
        solution.add(3)
        assert engine.reduce(solution).reactions == 1
