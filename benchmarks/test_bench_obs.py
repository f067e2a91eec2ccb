"""Observability overhead and identity gates for the reduction engine.

Two claims back the ``repro.obs`` zero-overhead contract at benchmark scale:

* **Identity** — an engine built with a :class:`NullTracer` (or a
  :class:`RecordingTracer`) reduces to exactly the same solution with
  exactly the same reaction history as an untraced engine, and the recorded
  reduction-phase spans reconcile with ``ReductionReport.timings`` to float
  precision (the invariant ``ginflow trace summarize`` relies on);
* **Off means off** — :func:`repro.obs.tracer.active` normalises a
  ``NullTracer`` to ``None`` at construction, so an engine or an agent built
  with one runs the very same code path as an untraced one: every
  instrumentation site is a ``trace is None`` check.  That is a structural
  fact, asserted as such; a wall-clock comparison of the two arms would time
  one code path twice and could only ever fail on host noise.  What tracing
  costs when it is *on* is read from the end-to-end benchmark's
  traced-vs-untraced ``trace.overhead_ratio``.
"""

from __future__ import annotations

import math

from repro.agents import AgentCore
from repro.analysis.obs_checks import reduction_phase_totals
from repro.hocl import ReductionEngine, default_registry
from repro.hoclflow import encode_workflow
from repro.hoclflow.generic_rules import register_workflow_externals
from repro.obs import NullTracer, RecordingTracer
from repro.services import InvocationContext, ServiceRegistry
from repro.workflow.montage import montage_workflow


def _reduce(workflow, trace=None):
    """Centralised serial reduction; returns (report, solution)."""
    encoding = encode_workflow(workflow)
    solution = encoding.to_multiset()
    registry = ServiceRegistry()
    attempts: dict[str, int] = {}

    def invoke(task_name: str, service_name: str, parameters: list) -> object:
        attempts[task_name] = attempts.get(task_name, 0) + 1
        task = encoding.tasks[task_name]
        context = InvocationContext(
            task_name=task_name, duration=task.duration, metadata=task.metadata,
            attempt=attempts[task_name],
        )
        outcome = registry.resolve(service_name).invoke(list(parameters), context)
        if outcome.failed:
            raise RuntimeError(outcome.error or "invocation failed")
        return outcome.value

    externals = default_registry()
    register_workflow_externals(externals, invoke)
    engine = ReductionEngine(
        externals=externals, max_steps=5_000_000, trace=trace, trace_track="centralized"
    )
    report = engine.reduce(solution)
    assert report.inert
    return report, solution


def _history(report):
    return [(r.rule, r.depth, r.consumed, r.produced) for r in report.history]


def test_null_tracer_is_reduction_identical():
    """A NullTracer engine reaches the same solution via the same reactions."""
    workflow = montage_workflow(projections=90, duration_scale=0.01)
    plain, plain_solution = _reduce(workflow, trace=None)
    nulled, nulled_solution = _reduce(workflow, trace=NullTracer())
    assert _history(nulled) == _history(plain)
    assert nulled.rule_fires == plain.rule_fires
    assert nulled.match_attempts == plain.match_attempts
    assert nulled_solution.content_hash() == plain_solution.content_hash()


def test_recording_tracer_is_reduction_identical_and_reconciles():
    """Recording changes nothing, and the spans carry the engine's own timings."""
    workflow = montage_workflow(projections=90, duration_scale=0.01)
    plain, plain_solution = _reduce(workflow, trace=None)
    tracer = RecordingTracer()
    traced, traced_solution = _reduce(workflow, trace=tracer)
    assert _history(traced) == _history(plain)
    assert traced_solution.content_hash() == plain_solution.content_hash()
    assert tracer.spans, "an active tracer must record the reduction"
    totals = reduction_phase_totals(tuple(tracer.spans))
    for phase in ("match", "rewrite", "patch", "index"):
        assert math.isclose(
            totals[phase], traced.timings.get(phase, 0.0), rel_tol=1e-6, abs_tol=1e-9
        ), f"{phase}: spans {totals[phase]} vs report {traced.timings.get(phase)}"


def test_null_tracer_is_normalised_away_at_construction():
    """Tracing off is the untraced code path itself, not a cheaper traced one."""
    assert ReductionEngine(trace=NullTracer()).trace is None
    encoding = encode_workflow(montage_workflow(projections=4, duration_scale=0.01))
    core = AgentCore(next(iter(encoding.tasks.values())), trace=NullTracer())
    assert core.trace is None
    assert core.engine.trace is None
