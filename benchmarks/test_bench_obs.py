"""Observability overhead and identity gates for the reduction engine.

Two claims back the ``repro.obs`` zero-overhead contract at benchmark scale:

* **Identity** — an engine built with a :class:`NullTracer` (or a
  :class:`RecordingTracer`) reduces to exactly the same solution with
  exactly the same reaction history as an untraced engine;
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

from reduction_reference import trace
from repro.agents import AgentCore
from repro.analysis.obs_checks import reduction_phase_totals
from repro.executors.centralized import CentralizedExecutor
from repro.hocl import ReductionEngine
from repro.hoclflow import encode_workflow
from repro.obs import NullTracer, Observability, RecordingTracer
from repro.workflow.montage import montage_workflow


def _reduce(workflow, tracer=None):
    """Centralised reduction; returns (report, solution)."""
    outcome = CentralizedExecutor(obs=Observability(tracer=tracer)).execute(workflow)
    assert outcome.report.inert
    return outcome.report, outcome.solution


def test_null_tracer_is_reduction_identical():
    """A NullTracer engine reaches the same solution via the same reactions."""
    workflow = montage_workflow(projections=90, duration_scale=0.01)
    plain, plain_solution = _reduce(workflow)
    nulled, nulled_solution = _reduce(workflow, NullTracer())
    assert trace(nulled) == trace(plain)
    assert nulled.rule_fires == plain.rule_fires
    assert nulled.match_attempts == plain.match_attempts
    assert nulled_solution.content_hash() == plain_solution.content_hash()


def test_recording_tracer_is_reduction_identical():
    """Recording changes nothing, and the spans time every phase."""
    workflow = montage_workflow(projections=90, duration_scale=0.01)
    plain, plain_solution = _reduce(workflow)
    tracer = RecordingTracer()
    traced, traced_solution = _reduce(workflow, tracer)
    assert trace(traced) == trace(plain)
    assert traced_solution.content_hash() == plain_solution.content_hash()
    phases = reduction_phase_totals(tuple(tracer.spans))
    assert phases["match"] > 0.0 and phases["patch"] > 0.0, "an active tracer must record the reduction"


def test_null_tracer_is_normalised_away_at_construction():
    """Tracing off is the untraced code path itself, not a cheaper traced one."""
    assert ReductionEngine(trace=NullTracer()).trace is None
    encoding = encode_workflow(montage_workflow(projections=4, duration_scale=0.01))
    core = AgentCore(next(iter(encoding.tasks.values())), trace=NullTracer())
    assert core.trace is None
    assert core.engine.trace is None
