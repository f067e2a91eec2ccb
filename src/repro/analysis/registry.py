"""The check registry — named, severity-tagged analyzer checks.

Checks are first-class registered objects, mirroring the scenario registry
of :mod:`repro.scenarios.registry`: the drivers in
:mod:`repro.analysis.analyzer` resolve every check of a *kind* through this
module, so a third-party check registered before ``ginflow lint`` runs is
picked up without touching the analyzer.

Registering a custom check::

    from repro.analysis import Finding, Severity, register_check

    @register_check(
        "rule-too-many-patterns",
        kind="rule",
        severity=Severity.WARNING,
        description="rules with very wide left-hand sides match slowly",
    )
    def check_pattern_count(scope):
        for rule in scope.rules:
            if len(rule.patterns) > 8:
                yield Finding(
                    check="rule-too-many-patterns",
                    severity=Severity.WARNING,
                    subject=rule.name,
                    message=f"rule {rule.name!r} has {len(rule.patterns)} patterns",
                    fix_hint="split the rule or narrow its patterns",
                    location=scope.label,
                )

A check function receives the context object of its kind (``"rule"`` →
:class:`~repro.analysis.rule_checks.RuleScope`, ``"workflow"`` →
:class:`~repro.analysis.workflow_checks.WorkflowContext`, ``"scenario"`` →
:class:`~repro.analysis.scenario_checks.ScenarioContext`, ``"trace"`` →
:class:`~repro.analysis.trace_checks.TraceScope`, ``"run"`` →
:class:`~repro.analysis.trace_checks.RunScope`, ``"plan"`` →
:class:`~repro.analysis.plan_checks.PlanScope`, ``"obs"`` →
:class:`~repro.analysis.obs_checks.ObsScope`) and returns an iterable of
:class:`~repro.analysis.findings.Finding`.  The first three kinds are
static (``ginflow lint``); the others are dynamic, consuming run
artifacts (``ginflow audit``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .findings import Finding, Severity

__all__ = [
    "CHECK_KINDS",
    "AnalysisCheck",
    "CheckRegistry",
    "registry",
    "register_check",
    "available_checks",
    "checks_for",
]

#: The context kinds a check can attach to.  ``rule``/``workflow``/``scenario``
#: are the static kinds (``ginflow lint``); ``trace``/``run``/``plan``/``obs``
#: are the dynamic kinds consuming run artifacts (``ginflow audit``).
CHECK_KINDS = ("rule", "workflow", "scenario", "trace", "run", "plan", "obs")

#: A check: context object in, findings out.
CheckFunction = Callable[[Any], Iterable[Finding]]


@dataclass(frozen=True)
class AnalysisCheck:
    """One registered check: an identifier, a kind, and the function itself.

    Attributes
    ----------
    id:
        Stable identifier (``"rule-unbound-product"``), also stamped on every
        finding the check produces.
    kind:
        Which context the check inspects — one of :data:`CHECK_KINDS`.
    severity:
        Default severity of the findings (informational; checks may emit
        individual findings at other severities).
    description:
        One-line human description shown by the check catalog.
    func:
        The check function.
    """

    id: str
    kind: str
    severity: Severity
    description: str
    func: CheckFunction

    def run(self, context: Any) -> list[Finding]:
        """Run the check on ``context`` and return its findings."""
        return list(self.func(context))


class CheckRegistry:
    """A thread-safe id → :class:`AnalysisCheck` registry."""

    def __init__(self) -> None:
        self._checks: dict[str, AnalysisCheck] = {}
        self._lock = threading.Lock()

    def register(
        self,
        check_id: str,
        func: CheckFunction | None = None,
        *,
        kind: str,
        severity: Severity = Severity.ERROR,
        description: str = "",
        replace: bool = False,
    ) -> Any:
        """Register ``func`` as check ``check_id`` (direct call or decorator)."""
        if kind not in CHECK_KINDS:
            raise ValueError(f"check {check_id!r}: kind must be one of {CHECK_KINDS}, got {kind!r}")

        def _store(function: CheckFunction) -> CheckFunction:
            if not callable(function):
                raise TypeError(f"check {check_id!r}: the check must be callable")
            with self._lock:
                if not replace and check_id in self._checks:
                    raise ValueError(
                        f"check {check_id!r} is already registered (pass replace=True to override)"
                    )
                self._checks[check_id] = AnalysisCheck(
                    id=check_id,
                    kind=kind,
                    severity=severity,
                    description=description or _first_doc_line(function),
                    func=function,
                )
            return function

        if func is None:
            return _store
        return _store(func)

    def unregister(self, check_id: str) -> None:
        """Remove a check (no error if absent) — mostly for tests."""
        with self._lock:
            self._checks.pop(check_id, None)

    def get(self, check_id: str) -> AnalysisCheck:
        """The check called ``check_id``; raises ``KeyError`` if unknown."""
        with self._lock:
            return self._checks[check_id]

    def checks(self, kind: str | None = None) -> tuple[AnalysisCheck, ...]:
        """Every registered check (of one kind), in registration order."""
        with self._lock:
            entries = tuple(self._checks.values())
        if kind is None:
            return entries
        return tuple(check for check in entries if check.kind == kind)

    def ids(self) -> tuple[str, ...]:
        """Registered check identifiers, in registration order."""
        with self._lock:
            return tuple(self._checks)


def _first_doc_line(func: CheckFunction) -> str:
    doc = getattr(func, "__doc__", None) or ""
    for line in doc.strip().splitlines():
        if line.strip():
            return line.strip()
    return ""


#: The process-wide registry the lint drivers resolve against.
registry = CheckRegistry()


def register_check(
    check_id: str,
    func: CheckFunction | None = None,
    *,
    kind: str,
    severity: Severity = Severity.ERROR,
    description: str = "",
    replace: bool = False,
) -> Any:
    """Register a check on the global registry (decorator or direct call)."""
    return registry.register(
        check_id, func, kind=kind, severity=severity, description=description, replace=replace
    )


def available_checks() -> tuple[AnalysisCheck, ...]:
    """Every registered check, built-ins included."""
    from . import ensure_builtin_checks

    ensure_builtin_checks()
    return registry.checks()


def checks_for(kind: str) -> tuple[AnalysisCheck, ...]:
    """Every registered check of one kind, built-ins included."""
    from . import ensure_builtin_checks

    ensure_builtin_checks()
    return registry.checks(kind)
