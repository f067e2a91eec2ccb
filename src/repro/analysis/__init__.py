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

Seven check families (see the modules for the catalog):

* rule checks (:mod:`repro.analysis.rule_checks`) — unbound product or
  condition variables, structurally dead index keys, shadowed rules,
  duplicate rule names, ``Ref``/``Splice`` arity mismatches;
* workflow checks (:mod:`repro.analysis.workflow_checks`) — cycles, orphan
  tasks, unreachable tasks/exits, duplicate task names in the source
  document, JSON-safety of the round-trip;
* scenario checks (:mod:`repro.analysis.scenario_checks`) — declared
  cost/failure-profile consistency and seed determinism;
* trace checks (:mod:`repro.analysis.trace_checks`) — rules an enactment
  holds but never fires across a run or sweep, fire-counter/history/reactions
  accounting, inertness;
* run checks (:mod:`repro.analysis.trace_checks`) — published vs delivered
  message accounting, per-task attempt/failure bookkeeping, exit-task
  terminal states, STATUS timeline ordering;
* plan checks (:mod:`repro.analysis.plan_checks`) — ADAPT-marker
  reachability per adaptation plan, trigger/task existence, live vs
  log-replay state parity;
* obs checks (:mod:`repro.analysis.obs_checks`) — recorded-trace
  invariants: spans closed and well-nested, broker publish/deliver events
  matching the transport counters.

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
