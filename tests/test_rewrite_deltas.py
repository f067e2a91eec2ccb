"""Delta-vs-rebuild parity of the HOCL rewrite pipeline.

Every rule that carries a :class:`~repro.hocl.deltas.RewriteDelta` also keeps
its classic product templates as the rebuild reference, and the engine's two
paths — ``ReductionEngine(delta=True)`` (the default, in-place copy-on-write
patches) and ``delta=False`` (full product reconstruction) — are held to one
parity contract: same final solution (content hash), same reaction multiset
(``rule_fires``), same ``match_attempts``, same inertness, and the same
history — as a multiset under the serial engine (kept anchors stay where they
are, rebuilt products go to the end of the level), in order wherever every
top-level pattern is head-keyed and under the batched engine.  Three layers
of evidence:

* **unit** — the delta data model validates its addressing (consume vs patch
  indices, pattern ranges, ``keep_matched`` exclusivity) and its application
  accounting (what left the level, what joined it, what stayed);
* **property-based fuzz** — hypothesis drives random seeded solutions
  through both engine paths on hand-written delta rules (a consume-style
  getMax and a patch-style drain), asserting trace identity;
* **end-to-end** — every scenario family of the catalog, reduced under every
  strategy (``serial``/``batch``/``parallel``), agrees between the two
  paths; and full runtime enactments (simulated/threaded/asyncio/
  centralized) report the same results either way, with the simulated
  runtime's virtual-time trace bit-identical.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.hocl.parallel import BUILTIN_POLICIES, reduce_sharded, resolve_policy
from repro.hoclflow import encode_workflow
from repro.hoclflow.generic_rules import register_workflow_externals
from repro.hocl import default_registry
from repro.runtime import GinFlow, backends
from repro.scenarios import available_scenarios, build_scenario
from repro.services import ServiceRegistry
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


def _trace(report):
    return [(r.rule, r.depth, r.consumed, r.produced) for r in report.history]


def _reduce(atoms, delta, batch=False):
    solution = Multiset(atoms)
    report = ReductionEngine(delta=delta, batch=batch).reduce(solution)
    return report, solution


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
            ],
            delta=True,
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
    delta_report, delta_solution = _reduce(values + [getmax_delta_rule()], delta=True)
    rebuild_report, rebuild_solution = _reduce(values + [getmax_delta_rule()], delta=False)
    assert delta_report.inert and rebuild_report.inert
    assert delta_solution.content_hash() == rebuild_solution.content_hash()
    assert delta_report.rule_fires == rebuild_report.rule_fires
    assert _trace(delta_report) == _trace(rebuild_report)
    assert delta_report.match_attempts == rebuild_report.match_attempts
    assert rebuild_report.patched == 0
    remaining = [a.value for a in delta_solution.atoms() if isinstance(a, IntAtom)]
    assert remaining == [max(values)]


@settings(max_examples=50, deadline=None)
@given(integers, st.booleans())
def test_drain_delta_parity(values, batch):
    def atoms():
        return [
            TupleTemplate(Symbol("BAG"), SolutionTemplate(*[IntAtom(v) for v in values])).expand({}, None)[0],
            TupleTemplate(Symbol("SINK"), SolutionTemplate()).expand({}, None)[0],
            drain_rule(),
        ]

    delta_report, delta_solution = _reduce(atoms(), delta=True, batch=batch)
    rebuild_report, rebuild_solution = _reduce(atoms(), delta=False, batch=batch)
    assert delta_report.inert and rebuild_report.inert
    assert delta_solution.content_hash() == rebuild_solution.content_hash()
    assert delta_report.rule_fires == rebuild_report.rule_fires
    assert _trace(delta_report) == _trace(rebuild_report)
    assert delta_report.match_attempts == rebuild_report.match_attempts
    assert delta_report.patched == len(values)
    assert rebuild_report.patched == 0


# -------------------------------------------------- scenario/strategy parity
def _reduce_workflow(workflow, mode, delta):
    """Centralised reduction under one strategy; mirrors the bench harness."""
    encoding = encode_workflow(workflow)
    solution = encoding.to_multiset()
    registry = ServiceRegistry()

    def invoke(task_name, service_name, parameters):
        task = encoding.tasks[task_name]
        from repro.services import InvocationContext

        context = InvocationContext(task_name=task_name, duration=task.duration, metadata=task.metadata, attempt=1)
        outcome = registry.resolve(service_name).invoke(list(parameters), context)
        if outcome.failed:
            raise RuntimeError(outcome.error or "invocation failed")
        return outcome.value

    externals = default_registry()
    register_workflow_externals(externals, invoke)
    policy = resolve_policy(mode)
    if not delta:
        policy = dataclasses.replace(policy, delta=False)

    def engine_factory():
        return ReductionEngine(externals=externals, max_steps=1_000_000, **policy.engine_options())

    if policy.parallel:
        reducer = policy.make_reducer()
        try:
            report = reduce_sharded(solution, engine_factory, reducer, max_steps=1_000_000)
        finally:
            reducer.shutdown()
    else:
        report = engine_factory().reduce(solution)
    assert report.inert
    return report, solution


def _small_spec(family):
    return f"{family}:size=24,seed=3"


@pytest.mark.parametrize("family", available_scenarios())
@pytest.mark.parametrize("mode", ["serial", "batch", "parallel"])
def test_scenario_family_delta_parity(family, mode):
    delta_report, delta_solution = _reduce_workflow(build_scenario(_small_spec(family)), mode, delta=True)
    rebuild_report, rebuild_solution = _reduce_workflow(build_scenario(_small_spec(family)), mode, delta=False)
    assert delta_solution.content_hash() == rebuild_solution.content_hash()
    assert delta_report.rule_fires == rebuild_report.rule_fires
    if mode == "serial" and family != "longchain":
        # kept anchors stay where they are while rebuilt products go to the
        # end of the level: the variable-headed ``gw_pass`` patterns of the
        # centralised rules may pick an equally applicable pair first
        assert sorted(_trace(delta_report)) == sorted(_trace(rebuild_report))
    else:
        assert _trace(delta_report) == _trace(rebuild_report)
    assert delta_report.match_attempts == rebuild_report.match_attempts
    assert delta_report.patched > 0, f"{family}/{mode}: no reaction took the delta path"
    assert rebuild_report.patched == 0


# ------------------------------------------------------------ runtime parity
@pytest.fixture(scope="module")
def rebuild_policy_name():
    """A temporarily registered serial policy forcing the rebuild path."""
    backends.ensure_builtin_backends()
    name = "serial-rebuild-parity"
    backends.register_reduction(
        name,
        lambda config=None: dataclasses.replace(BUILTIN_POLICIES["serial"], name=name, delta=False),
    )
    yield name
    backends.registry.unregister("reduction", name)


@pytest.mark.parametrize("mode", ["simulated", "threaded", "asyncio", "centralized"])
def test_runtime_delta_parity(mode, rebuild_policy_name):
    workflow = diamond_workflow(4, 3)
    delta_run = GinFlow().run(workflow, mode=mode, nodes=5, reduction="serial")
    rebuild_run = GinFlow().run(workflow, mode=mode, nodes=5, reduction=rebuild_policy_name)
    assert delta_run.succeeded and rebuild_run.succeeded
    assert delta_run.results == rebuild_run.results
    assert delta_run.reduction_reactions == rebuild_run.reduction_reactions


def test_simulated_trace_bit_identical(rebuild_policy_name):
    """The simulated runtime's virtual-time trace is identical either way."""
    workflow = diamond_workflow(6, 4, connectivity="full")
    delta_run = GinFlow().run(workflow, mode="simulated", nodes=10, reduction="serial")
    rebuild_run = GinFlow().run(workflow, mode="simulated", nodes=10, reduction=rebuild_policy_name)
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
