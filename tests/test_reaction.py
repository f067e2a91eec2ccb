"""The shape of the engine's one path: a rule is searched and fired by its
reaction (``repro.hocl.deltas.Reaction``), one generated function per rule
body, on the search's own locals.

Each reaction is a step of HOCL's one-step relation (``hocl_semantics.py``),
here on random rules, where an edit gives a refuted entry back, and past
CPython's twenty nested blocks with a pattern class of the caller's own; and
here is what it does *not* do: build a binding view nobody reads, time its
phases out of order, or leave a half-fired solution behind.
"""

import pytest
from hypothesis import given, note, settings

from hocl_semantics import Chemistry, norm, ordered
from reduction_reference import walk_the_relation
from test_matcher_oracle import _EXAMPLES, _FULL, Even, EvenChemistry
from test_rule_summary import _rules

from repro.executors.centralized import CentralizedExecutor
from repro.hocl import (
    Call,
    IntAtom,
    Multiset,
    Omega,
    ReductionEngine,
    ReductionError,
    Ref,
    Rule,
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
from repro.hocl import BindingView
from repro.obs import Observability, RecordingTracer
from repro.scenarios import build_scenario


class TestNoBindingViewNobodyReads:
    def test_an_untraced_centralised_montage_builds_one_view_per_call(self, monkeypatch):
        """What a ``Call`` product's external is handed is one view of the
        bindings per firing, and nothing else builds one: ``gw_setup``'s ω
        copied already for its own parameter list, ``gw_call``'s ``RES`` ω left
        pending (copied only if the external reads it)."""
        built, init = [0], BindingView.__init__

        def counted(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(BindingView, "__init__", counted)
        outcome = CentralizedExecutor().execute(build_scenario("montage:size=300,seed=1"))
        assert outcome.report.reactions == 1190 and not outcome.errors
        fires = outcome.report.rule_fires
        assert built[0] == fires["gw_setup"] + fires["gw_call"]


class TestTracedPhases:
    def test_one_patch_span_per_reaction_after_its_match(self):
        tracer = RecordingTracer()
        outcome = CentralizedExecutor(obs=Observability(tracer=tracer)).execute(build_scenario("montage:size=60,seed=1"))
        spans = [span for span in tracer.spans if span.name.startswith("reduction.")]
        patches = [span for span in spans if span.name == "reduction.patch"]
        assert len(patches) == outcome.report.reactions > 0
        # each patch is recorded right after the match span that found it, on the same rule
        for index, span in enumerate(spans):
            if span.name == "reduction.patch":
                found = spans[index - 1]
                assert found.name == "reduction.match" and found.attrs["rule"] == span.attrs["rule"]
                assert found.start <= found.end <= span.start <= span.end


class TestARaisingFire:
    def test_is_a_reduction_error_naming_the_rule_and_changes_nothing(self):
        registry = default_registry()
        registry.register("boom", lambda args, _bindings: 1 // 0)
        # ``y`` is restated and ``x`` consumed: the fire has an edit to make after the call
        rule = Rule("boom", [Var("x", kind="int"), Var("y", kind="symbol")], [Ref("y"), Call("boom", Ref("x"))])
        solution = Multiset([1, rule, Symbol("S"), 2])
        entries, version = [(entry, entry.atom) for entry in solution.live_entries()], solution.version
        with pytest.raises(ReductionError, match="rule 'boom' failed to apply its rewrite delta"):
            ReductionEngine(externals=registry).reduce(solution)
        assert [(entry, entry.atom) for entry in solution.live_entries()] == entries and solution.version == version


# ------------------------------------------------------------ search, then fire
def _externals():
    externals = default_registry()
    externals.register("echo", lambda args, _bindings: args)
    return externals


def _on_the_relation(rule, level, bound=12):
    """Reduce ``level`` holding ``rule`` one reaction at a time on the relation;
    the rules fired — or, where a fire raises, the relation raising too."""
    solution, externals = level.copy(), _externals()
    solution.add(rule)
    try:
        return walk_the_relation(solution, externals, bound=bound)
    except ReductionError:
        with pytest.raises(Exception):  # noqa: B017 - any error of the same products
            Chemistry(externals).steps(norm(ordered(solution)))
        return None


class TestOneReactionIsAStepOfTheRelation:
    @given(program=_rules())
    @settings(max_examples=_EXAMPLES, deadline=None, derandomize=not _FULL)
    def test_random_rules(self, program):
        rule, level = program
        note(f"{rule.patterns} -> {rule.products}, {rule.condition}, given {rule.given}, keep_matched {rule.keep_matched}")
        _on_the_relation(rule, level)

    @pytest.mark.parametrize("given", [{}, {"w": [IntAtom(8)]}, {"w": [IntAtom(9)]}], ids=["nothing given", "its omega given", "another omega given"])
    def test_past_twenty_nested_blocks_and_a_pattern_from_outside(self, given):
        """A reaction deeper than CPython's twenty blocks goes on in a nested
        function: memories closed, ω copied and the fire run in there."""
        patterns = [TuplePattern(SymbolPattern(f"H{index}"), Var(f"x{index}")) for index in range(20)]
        patterns += [Var("x3", kind="int"), Even("e"), SolutionPattern(Var("x7"), rest=Omega("w")), Var("half_e")]
        products = [TupleTemplate(Symbol("OUT"), Ref("half_e"), SolutionTemplate(Splice("w"))), Ref("x0")]
        rule = Rule("deep", patterns, products, given=given)
        level = Multiset([TupleAtom([Symbol(f"H{index}"), index]) for index in range(20)] + [3, 3, 6, 4, 2, Subsolution([7, 8]), rule])
        fired = walk_the_relation(level, _externals(), EvenChemistry(_externals()), bound=12)
        assert "def deeper():" in rule.reaction.__source__
        assert fired == ({} if given == {"w": [IntAtom(9)]} else {"deep": 1})

    def test_the_memories_close_before_the_fire_edits(self):
        """``move``'s search refutes ``T1 : <>`` (its body is empty) and its
        fire fills that body, which gives the entry back to the memory ``take``
        searches through too.  Closed after the edits, the memory would refute
        it again for good: ``take`` would never see ``T1 : <5>``."""
        anywhere = TuplePattern(Var("t", kind="symbol"), SolutionPattern(Var("x", kind="int"), rest=Omega("w")))
        emptied = TupleTemplate(Ref("t"), SolutionTemplate(Splice("w")))
        move = Rule(
            "move", [anywhere, TuplePattern(SymbolPattern("T1"), SolutionPattern(rest=Omega("v")))],
            [emptied, TupleTemplate(Symbol("T1"), SolutionTemplate(Ref("x"), Splice("v")))], priority=1,
        )  # fmt: skip
        take = Rule("take", [anywhere, SymbolPattern("GO")], [emptied, Ref("x")], one_shot=True)
        level = Multiset([TupleAtom([Symbol("T1"), Subsolution()]), TupleAtom([Symbol("T2"), Subsolution([5])]), Symbol("GO"), take])
        assert _on_the_relation(move, level) == {"move": 1, "take": 1}
