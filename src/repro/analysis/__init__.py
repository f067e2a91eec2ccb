"""repro.analysis — static and dynamic analysis for GinFlow.

The whole system rests on hand-written chemical rules and generated DAGs;
when one of them is wrong, it usually fails *at enactment time*, often as a
silent hang.  This package diagnoses that failure class from both sides:
statically (reading the :class:`~repro.hocl.deltas.RuleSummary` the engine
derives for every :class:`~repro.hocl.rules.Rule` — what it binds, reads,
matches and can add — and cross-checking pattern index keys against the
target solution) and
dynamically (holding the artifacts a run produces — fire counters, message
accounting, timelines, adaptation plans — to the invariants the enactment
protocol promises).

Six check families (see the modules for the catalog):

* rule checks (:mod:`repro.analysis.rule_checks`) — unbound product or
  condition variables, structurally dead index keys, shadowed rules,
  duplicate rule names, ``Ref``/``Splice`` arity mismatches;
* workflow checks (:mod:`repro.analysis.workflow_checks`) — orphan tasks
  and JSON-safety of the round-trip, on a workflow ``validate`` accepted;
* trace checks (:mod:`repro.analysis.trace_checks`) — rules an enactment
  holds but never fires across a run or sweep, and fired rules it does not
  hold;
* run checks (:mod:`repro.analysis.trace_checks`) — published vs delivered
  message accounting, per-task attempt/failure bookkeeping, exit-task
  terminal states, STATUS timeline ordering;
* plan checks (:mod:`repro.analysis.plan_checks`) — ADAPT-marker
  reachability per adaptation plan, trigger/task existence, live vs
  log-replay state parity;
* obs checks (:mod:`repro.analysis.obs_checks`) — recorded-trace
  invariants: spans closed and well-nested, broker publish/deliver events
  matching the transport counters.

A workflow is analysed as the program a run enacts: ``ginflow lint`` loads
a document with :func:`~repro.workflow.json_format.workflow_from_json`, the
loader of ``ginflow run``, and what it or ``Workflow.validate`` refuses (a
typo'd key, a duplicate task, a cycle, a broken adaptation) is one
``workflow-document`` finding carrying the refusal's message.

The checks are the rows of one closed table,
:data:`repro.analysis.checks.CHECKS` (the same idiom as the scenarios),
which the drivers read by kind.  Surfaced as ``ginflow lint`` (static),
``ginflow audit`` (dynamic) and as a pytest-importable API, imported from
the driver modules (:mod:`repro.analysis.analyzer` for the static checks,
:mod:`repro.analysis.trace` for the dynamic ones)::

    from repro.analysis.analyzer import analyze_scenario
    from repro.analysis.trace import audit_scenario

    assert analyze_scenario("epigenomics").ok()
    assert audit_scenario("epigenomics:size=20").ok()
"""

from __future__ import annotations

from .findings import AnalysisReport, Finding, Severity

__all__ = ["AnalysisReport", "Finding", "Severity"]
