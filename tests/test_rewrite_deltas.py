"""Delta-vs-rebuild parity of the HOCL rewrite pipeline.

Every rule that carries a :class:`~repro.hocl.deltas.RewriteDelta` also keeps
its classic product templates as the rebuild form, and the engine (in-place
copy-on-write patches) is held to :class:`reduction_reference.RebuildEngine`
(full product reconstruction) under the parity contract stated there; the
history is equal as a multiset (kept anchors stay where they are, rebuilt
products go to the end of the level), and in order wherever every top-level
pattern is head-keyed.  Three layers of evidence:

* **unit** — the delta data model validates its addressing (consume vs patch
  indices, pattern ranges, ``keep_matched`` exclusivity) and its application
  accounting (what left the level, what joined it, what stayed);
* **property-based fuzz** — hypothesis drives random seeded solutions
  through both forms on hand-written delta rules (a consume-style getMax and
  a patch-style drain), asserting trace identity;
* **end-to-end** — every scenario family of the catalog agrees between the
  two forms; and full runtime enactments (simulated/asyncio/
  centralized) report the same results either way, with the simulated
  runtime's virtual-time trace bit-identical.
"""

import pytest
from hypothesis import given, settings, strategies as st

from reduction_reference import RebuildEngine, assert_parity, reduce_workflow, trace
from repro.hocl import (
    DeltaError,
    IntAtom,
    Multiset,
    Omega,
    PatchAdd,
    PatchRemove,
    ReductionEngine,
    Ref,
    RewriteDelta,
    Rule,
    RuleError,
    SolutionPattern,
    SolutionTemplate,
    Splice,
    Symbol,
    SymbolPattern,
    TuplePattern,
    TupleTemplate,
    Var,
)
from repro.runtime import GinFlow
from repro.scenarios import available_scenarios, build_scenario
from repro.workflow import diamond_workflow


# ------------------------------------------------------------- fixture rules
def getmax_delta_rule():
    """Pairwise max, delta form: keep the winner in place, consume the loser."""
    return Rule(
        "max",
        [Var("x", kind="int"), Var("y", kind="int")],
        [Ref("x")],
        condition=lambda b: b.value("x") >= b.value("y"),
        delta=RewriteDelta(consume=(1,)),
    )


def drain_rule():
    """Move one item from the BAG body into the SINK body, patch style.

    Rebuild products list the kept fields first in pattern order (the
    convention the trace-identity guarantee relies on).
    """
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
        delta=RewriteDelta(
            ops=(
                PatchRemove(at=0, items=(Ref("x"),)),
                PatchAdd(at=1, templates=(Ref("x"),)),
            )
        ),
    )


def _reduce(atoms, engine_class=ReductionEngine):
    solution = Multiset(atoms)
    return engine_class().reduce(solution), solution


# ------------------------------------------------------------------ unit
class TestDeltaDataModel:
    def test_patch_on_consumed_pattern_rejected(self):
        with pytest.raises(DeltaError, match="also consumes"):
            RewriteDelta(consume=(0,), ops=(PatchAdd(at=0, templates=(Symbol("A"),)),))

    def test_rule_rejects_keep_matched_with_delta(self):
        with pytest.raises(RuleError, match="keep_matched"):
            Rule(
                "bad",
                [Var("x")],
                [],
                keep_matched=True,
                delta=RewriteDelta(consume=(0,)),
            )

    def test_rule_rejects_out_of_range_delta_index(self):
        with pytest.raises(RuleError, match="delta addresses pattern"):
            Rule("bad", [Var("x")], [], delta=RewriteDelta(consume=(3,)))

    def test_patch_remove_of_absent_item_is_an_error(self):
        rule = Rule(
            "broken",
            [
                TuplePattern(SymbolPattern("BAG"), SolutionPattern(rest=Omega("w"))),
                Var("x", kind="int"),
            ],
            [
                TupleTemplate(Symbol("BAG"), SolutionTemplate(Splice("w"))),
            ],
            delta=RewriteDelta(
                consume=(1,),
                ops=(PatchRemove(at=0, items=(Symbol("GHOST"),)),),
            ),
        )
        solution = Multiset([TupleTemplate(Symbol("BAG"), SolutionTemplate()).expand({}, None)[0], 1, rule])
        from repro.hocl import ReductionError

        with pytest.raises(ReductionError, match="rewrite delta"):
            ReductionEngine().reduce(solution)

    def test_applied_delta_accounting(self):
        delta = drain_rule().delta
        assert delta is not None
        report, solution = _reduce(
            [
                TupleTemplate(Symbol("BAG"), SolutionTemplate(IntAtom(1), IntAtom(2))).expand({}, None)[0],
                TupleTemplate(Symbol("SINK"), SolutionTemplate()).expand({}, None)[0],
                drain_rule(),
            ]
        )
        assert report.inert
        assert report.patched == 2  # both drains applied in place
        # history records the rebuild-equivalent counts: 2 consumed patterns,
        # 2 dirty products (the kept BAG and SINK anchors) per fire
        assert {(r.consumed, r.produced) for r in report.history if r.rule == "drain"} == {(2, 2)}

    def test_referenced_variables_include_delta_reads(self):
        rule = drain_rule()
        assert "x" in rule.referenced_variables()


# -------------------------------------------------------------- fuzz parity
integers = st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=25)


@settings(max_examples=50, deadline=None)
@given(integers)
def test_getmax_delta_parity(values):
    delta_report, delta_solution = _reduce(values + [getmax_delta_rule()])
    rebuild_report, rebuild_solution = _reduce(values + [getmax_delta_rule()], RebuildEngine)
    assert_parity((delta_report, delta_solution), (rebuild_report, rebuild_solution), rebuilt=True)
    assert trace(delta_report) == trace(rebuild_report)
    remaining = [a.value for a in delta_solution.atoms() if isinstance(a, IntAtom)]
    assert remaining == [max(values)]


@settings(max_examples=50, deadline=None)
@given(integers)
def test_drain_delta_parity(values):
    def atoms():
        return [
            TupleTemplate(Symbol("BAG"), SolutionTemplate(*[IntAtom(v) for v in values])).expand({}, None)[0],
            TupleTemplate(Symbol("SINK"), SolutionTemplate()).expand({}, None)[0],
            drain_rule(),
        ]

    delta_report, delta_solution = _reduce(atoms())
    rebuild_report, rebuild_solution = _reduce(atoms(), RebuildEngine)
    assert_parity((delta_report, delta_solution), (rebuild_report, rebuild_solution), rebuilt=True)
    assert trace(delta_report) == trace(rebuild_report)
    assert delta_report.patched == len(values)


# ----------------------------------------------------------- scenario parity
@pytest.mark.parametrize("family", available_scenarios())
def test_scenario_family_delta_parity(family):
    spec = f"{family}:size=24,seed=3"
    delta_report, delta_solution, _ = reduce_workflow(build_scenario(spec))
    rebuild_report, rebuild_solution, _ = reduce_workflow(build_scenario(spec), RebuildEngine)
    assert_parity((delta_report, delta_solution), (rebuild_report, rebuild_solution), rebuilt=True)
    if family == "longchain":
        assert trace(delta_report) == trace(rebuild_report)
    else:
        # kept anchors stay where they are while rebuilt products go to the
        # end of the level: the variable-headed ``gw_pass`` patterns of the
        # centralised rules may pick an equally applicable pair first
        assert sorted(trace(delta_report)) == sorted(trace(rebuild_report))
    assert delta_report.patched > 0, f"{family}: no reaction took the delta path"


# ------------------------------------------------------------ runtime parity
@pytest.fixture
def rebuild_everywhere(monkeypatch):
    """Every engine a run builds fires its rules by their rebuild form."""
    return lambda: monkeypatch.setattr(ReductionEngine, "_apply", RebuildEngine._apply)


@pytest.mark.parametrize("mode", ["simulated", "asyncio", "centralized"])
def test_runtime_delta_parity(mode, rebuild_everywhere):
    workflow = diamond_workflow(4, 3)
    delta_run = GinFlow().run(workflow, mode=mode, nodes=5)
    rebuild_everywhere()
    rebuild_run = GinFlow().run(workflow, mode=mode, nodes=5)
    assert delta_run.succeeded and rebuild_run.succeeded
    assert delta_run.results == rebuild_run.results
    assert delta_run.reduction_reactions == rebuild_run.reduction_reactions


@pytest.mark.parametrize("mode", ["simulated", "asyncio", "centralized"])
@pytest.mark.parametrize("family", available_scenarios())
def test_scenario_family_runtime_delta_parity(family, mode, rebuild_everywhere):
    """Every family enacted both ways on every runtime, the agents' own delta
    rules included; the simulated timeline does not move."""
    spec = f"{family}:size=10,seed=1"
    delta_run = GinFlow().run(build_scenario(spec), mode=mode, nodes=5)
    rebuild_everywhere()
    rebuild_run = GinFlow().run(build_scenario(spec), mode=mode, nodes=5)
    assert delta_run.succeeded and rebuild_run.succeeded
    assert delta_run.results == rebuild_run.results
    assert delta_run.reduction_reactions == rebuild_run.reduction_reactions
    if mode == "simulated":
        assert delta_run.reduction_match_attempts == rebuild_run.reduction_match_attempts
        assert delta_run.timeline == rebuild_run.timeline


def test_simulated_trace_bit_identical(rebuild_everywhere):
    """The simulated runtime's virtual-time trace is identical either way."""
    workflow = diamond_workflow(6, 4, connectivity="full")
    delta_run = GinFlow().run(workflow, mode="simulated", nodes=10)
    rebuild_everywhere()
    rebuild_run = GinFlow().run(workflow, mode="simulated", nodes=10)
    assert delta_run.succeeded and rebuild_run.succeeded
    assert delta_run.results == rebuild_run.results
    assert delta_run.makespan == rebuild_run.makespan
    assert delta_run.execution_time == rebuild_run.execution_time
    assert delta_run.messages_published == rebuild_run.messages_published
    assert delta_run.messages_delivered == rebuild_run.messages_delivered
    assert delta_run.reduction_reactions == rebuild_run.reduction_reactions
    assert delta_run.reduction_match_attempts == rebuild_run.reduction_match_attempts
    assert delta_run.timeline == rebuild_run.timeline
    assert {name: outcome.finished_at for name, outcome in delta_run.tasks.items()} == {
        name: outcome.finished_at for name, outcome in rebuild_run.tasks.items()
    }
