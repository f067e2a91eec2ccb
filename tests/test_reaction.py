"""The shape of the engine's one path: a rule is searched and fired by its
reaction (``repro.hocl.deltas.Reaction``), one generated function per rule
body, on the search's own locals.

What it reaches — history, counters, final solution — is held to the two-step
oracles of ``tests/reduction_reference.py`` by ``test_reduction_parity.py``;
here is what it does *not* do: build a match record the engine does not read,
time its phases out of order, or leave a half-fired solution behind.
"""

import pytest
from hypothesis import given, settings, strategies as st

from reduction_reference import TwoStepEngine
from test_matcher_oracle import _EXAMPLES, Even
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
from repro.hocl import matching as matching_module
from repro.hocl import patterns as patterns_module
from repro.hocl.deltas import Reaction
from repro.obs import Observability, RecordingTracer
from repro.scenarios import build_scenario


@pytest.fixture
def built(monkeypatch):
    """How many ``Match``, ``BindingView`` and ``_Rest`` objects get built."""
    counts = dict.fromkeys(("Match", "BindingView", "_Rest"), 0)
    for module, name in ((matching_module, "Match"), (patterns_module, "BindingView"), (patterns_module, "_Rest")):
        cls = getattr(module, name)

        def init(self, *args, _init=cls.__init__, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


class TestNoMatchRecord:
    def test_an_untraced_unobserved_centralised_montage_builds_no_match_record(self, built):
        """No match record; what a ``Call`` product's external is handed is one
        view of the bindings per firing, as it always was: ``gw_setup``'s ω
        copied already for its own parameter list, ``gw_call``'s ``RES`` ω
        left pending (copied only if the external reads it)."""
        outcome = CentralizedExecutor().execute(build_scenario("montage:size=300,seed=1"))
        assert outcome.report.reactions == 1190 and not outcome.errors
        fires = outcome.report.rule_fires
        assert built == {"Match": 0, "BindingView": fires["gw_setup"] + fires["gw_call"], "_Rest": fires["gw_call"]}

    def test_an_observer_is_handed_the_match(self, built):
        seen = []
        engine = ReductionEngine(observer=lambda rule, match, depth: seen.append(match.bindings.value("x")))
        rule = Rule("drop", [Var("x", kind="int")], [])
        assert engine.reduce(Multiset([1, 2, rule])).reactions == 2
        assert seen == [1, 2] and built["Match"] == 2


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
def _reduced(engine_class, rule, level, observed):
    """What reducing ``level`` holding ``rule`` reaches: the report, the
    solution and what an observer saw — or the error it raised."""
    seen = []
    observer = (lambda rule, match, depth: seen.append((rule.name, depth, dict(match.bindings)))) if observed else None
    engine = engine_class(externals=default_registry(), max_steps=12, observer=observer)
    engine.externals.register("echo", lambda args, _bindings: args)
    solution = level.copy()
    solution.add(rule)
    try:
        report = engine.reduce(solution)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    history = [(record.rule, record.depth, record.consumed, record.produced) for record in report.history]
    return history, report.rule_fires, report.match_attempts, report.inert, report.effects, solution.atoms(), seen


class TestOneReactionIsTheSearchThenTheFire:
    @given(program=_rules(), observed=st.booleans())
    @settings(max_examples=_EXAMPLES, deadline=None)
    def test_random_rules(self, program, observed):
        rule, level = program
        assert _reduced(ReductionEngine, rule, level, observed) == _reduced(TwoStepEngine, rule, level, observed)

    @pytest.mark.parametrize("observed", [False, True])
    def test_past_twenty_nested_blocks_and_a_pattern_from_outside(self, observed):
        """A reaction deeper than CPython's twenty blocks goes on in a nested
        function: memories closed, ω copied and the fire run in there."""
        patterns = [TuplePattern(SymbolPattern(f"H{index}"), Var(f"x{index}")) for index in range(20)]
        patterns += [Var("x3", kind="int"), Even("e"), SolutionPattern(Var("x7"), rest=Omega("w")), Var("half_e")]
        products = [TupleTemplate(Symbol("OUT"), Ref("half_e"), SolutionTemplate(Splice("w"))), Ref("x0")]
        level = Multiset([TupleAtom([Symbol(f"H{index}"), index]) for index in range(20)] + [3, 3, 6, 4, 2, Subsolution([7, 8])])
        for given in ({}, {"w": [IntAtom(8)]}, {"w": [IntAtom(9)]}):
            rule = Rule("deep", patterns, products, given=given)
            assert "def deeper():" in Reaction._write(rule)[0]
            fused = _reduced(ReductionEngine, rule, level, observed)
            assert fused == _reduced(TwoStepEngine, rule, level, observed)
            assert fused[1] == ({} if given == {"w": [IntAtom(9)]} else {"deep": 1})

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
        fused = _reduced(ReductionEngine, move, level, False)
        assert [record[0] for record in fused[0]] == ["move", "take"]
        assert fused == _reduced(TwoStepEngine, move, level, False)
