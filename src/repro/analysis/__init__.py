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
* trace checks (:mod:`repro.analysis.trace_checks`) — rules registered but
  never fired across a run or sweep, fire-counter/history/reactions
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

Checks are registered objects (the same idiom as scenarios);
:func:`register_check` accepts third-party checks, and the drivers pick
them up automatically.  Surfaced as ``ginflow lint`` (static), ``ginflow
audit`` (dynamic) and as a pytest-importable API::

    from repro.analysis import analyze_scenario, audit_scenario

    assert analyze_scenario("epigenomics").ok()
    assert audit_scenario("epigenomics:size=20").ok()
"""

from __future__ import annotations

import threading

from .findings import AnalysisReport, Finding, Severity
from .registry import (
    CHECK_KINDS,
    AnalysisCheck,
    CheckRegistry,
    available_checks,
    checks_for,
    register_check,
    registry,
)

__all__ = [
    "AnalysisCheck",
    "AnalysisReport",
    "CHECK_KINDS",
    "CheckRegistry",
    "Finding",
    "Severity",
    "analyze_all_scenarios",
    "analyze_document",
    "analyze_encoding",
    "analyze_rules",
    "analyze_scenario",
    "analyze_workflow",
    "audit_all_scenarios",
    "audit_plans",
    "audit_reduction",
    "audit_run",
    "audit_scenario",
    "audit_workflow",
    "available_checks",
    "checks_for",
    "ensure_builtin_checks",
    "register_check",
    "registry",
]

_builtins_loaded = False
_builtins_lock = threading.RLock()


def ensure_builtin_checks() -> None:
    """Import the built-in check modules exactly once (idempotent, thread-safe)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    with _builtins_lock:
        if _builtins_loaded:
            return
        import importlib

        for module in (
            "rule_checks",
            "workflow_checks",
            "scenario_checks",
            "trace_checks",
            "plan_checks",
            "obs_checks",
        ):
            importlib.import_module(f"repro.analysis.{module}")
        _builtins_loaded = True


_ANALYZER_DRIVERS = (
    "analyze_all_scenarios",
    "analyze_document",
    "analyze_encoding",
    "analyze_rules",
    "analyze_scenario",
    "analyze_workflow",
)

_AUDIT_DRIVERS = (
    "audit_all_scenarios",
    "audit_plans",
    "audit_reduction",
    "audit_run",
    "audit_scenario",
    "audit_workflow",
    "enactment_rules",
)


def __getattr__(name: str) -> object:
    """Lazily expose the drivers (they import hoclflow/runtime, which are heavy)."""
    if name in _ANALYZER_DRIVERS:
        from . import analyzer

        value = getattr(analyzer, name)
        globals()[name] = value
        return value
    if name in _AUDIT_DRIVERS:
        from . import trace

        value = getattr(trace, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
