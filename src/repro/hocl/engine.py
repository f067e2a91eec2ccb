"""The HOCL reduction engine.

Reduction repeatedly applies applicable rules to a solution until no rule can
fire anywhere — the solution is then *inert*.  Two points of the HOCL
execution model matter for GinFlow and are implemented here:

* **Nested solutions reduce first.**  A rule of an outer solution may only
  consume a sub-solution once that sub-solution is inert.  The engine
  enforces this by reducing depth-first: at every step, all nested solutions
  (including those stored inside tuples, which is how task sub-solutions are
  encoded) are brought to inertness before any outer rule is tried.
* **One-shot rules.**  A ``replace-one`` rule is removed from its solution
  when it fires.

The engine is deliberately deterministic for a fixed rule set and solution:
rules are tried in priority order (then insertion order) and the first match
found is applied.  HOCL semantics allow any order; determinism makes tests
and the simulation reproducible without changing the set of reachable inert
states for the confluent programs used by GinFlow.

Incremental reduction
---------------------
The engine relies on the dirty tracking of
:class:`~repro.hocl.multiset.Multiset` to avoid redoing work that cannot
have changed since the last reduction:

* a solution proven inert is stamped (:meth:`Multiset.note_inert`) and
  skipped with its whole subtree until a mutation below it bumps its version;
  the descent reads the entries the multiset flagged, not every nested one,
  and a solution holding no rule and no nested solution is never flagged:
  a field body cannot react, so editing it costs no visit;
* rules come from the multiset's cached priority ordering, and a rule is only
  *tried* (and charged a ``match_attempt``) when each of its patterns has a
  candidate in the head-symbol index;
* a pattern keyed by a whole kind bucket searches the bucket's
  plausible-candidate memory: what its ``quick_reject`` has not refuted;
* the search itself is :func:`~repro.hocl.matching.first_match` — the engine
  only ever consumes the first admissible match, so it asks for that;
* a rule fires through its :class:`~repro.hocl.deltas.RewriteDelta`, derived
  from its two sides: the atoms a product restates stay in place and the
  patches edit their nested solutions, instead of everything matched being
  removed and the products rebuilt.

All of it is trace-preserving — only searches and candidates guaranteed to
fail are skipped — so :attr:`ReductionReport.history` is identical to a naive
walk's that visits every nested solution and tries every rule.  That walk, and
the rebuild application of the products, live in ``tests/reduction_reference.py``
as the oracle the engine is held to.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.obs.tracer import Tracer, active as active_tracer
from repro.records import Record

from .errors import ReductionError
from .externals import ExternalRegistry, default_registry
from .matching import Match, first_match
from .multiset import Multiset
from .rules import Rule

__all__ = ["PHASES", "Record", "ReductionReport", "ReactionRecord", "ReductionEngine", "reduce_solution", "is_inert"]

#: The reduction phases a traced engine times: ``match`` (searching for an
#: applicable rule), ``patch`` (applying its rewrite delta) and ``index`` (the
#: one-shot rule's removal that follows).
PHASES = ("match", "patch", "index")


class ReactionRecord(Record):
    """One rule firing, as recorded in a :class:`ReductionReport`.

    ``consumed`` counts the matched atoms and ``produced`` the atoms the
    firing left behind: the kept anchors plus the ``produce`` expansions —
    as many as expanding the products would make.
    """

    __slots__ = ("rule", "depth", "consumed", "produced")

    def __init__(self, rule: str, depth: int, consumed: int, produced: int):
        self.rule, self.depth, self.consumed, self.produced = rule, depth, consumed, produced


class ReductionReport(Record):
    """Statistics gathered while reducing a solution.

    Attributes
    ----------
    reactions:
        Number of rule firings.
    match_attempts:
        Number of (rule, solution) match searches performed; the simulation
        cost model charges virtual time proportional to this and to the
        solution size.
    inert:
        ``True`` when reduction reached a state where no rule can fire;
        ``False`` only when the step limit was hit.
    history:
        Per-reaction records (rule name, nesting depth, atoms consumed and
        produced), useful for debugging and for the execution traces.
    rule_fires:
        Number of firings per rule name, aggregated across the whole
        reduction (and across merged reports).  ``sum(rule_fires.values())``
        always equals ``reactions``; the dynamic analyzer uses this to flag
        registered rules that never fired over a run or sweep.
    effects:
        What the fired rules' effect hooks returned, in firing order (see
        :class:`~repro.hocl.rules.Rule`): the report of one ``reduce`` call
        is the only sink an effect has.
    """

    __slots__ = ("reactions", "match_attempts", "inert", "history", "rule_fires", "effects")

    def __init__(
        self, reactions: int = 0, match_attempts: int = 0, inert: bool = True,
        history: list[ReactionRecord] | None = None, rule_fires: dict[str, int] | None = None,
        effects: list[Any] | None = None,
    ):  # fmt: skip
        self.reactions, self.match_attempts, self.inert = reactions, match_attempts, inert
        self.history = [] if history is None else history
        self.rule_fires = {} if rule_fires is None else rule_fires
        self.effects = [] if effects is None else effects

    def merge(self, other: "ReductionReport") -> None:
        """Accumulate ``other`` into this report.

        Every counter is summed key-by-key: ``rule_fires`` keys present only
        in ``other`` are *added*, not dropped, so merged accounting stays
        balanced (``sum(rule_fires.values()) == reactions``) even when the two
        sides saw disjoint rule sets — the invariant the dynamic analyzer's
        accounting check relies on.
        """
        self.reactions += other.reactions
        self.match_attempts += other.match_attempts
        self.inert = self.inert and other.inert
        self.history.extend(other.history)
        self.effects.extend(other.effects)
        for name, fires in other.rule_fires.items():
            self.rule_fires[name] = self.rule_fires.get(name, 0) + fires

    def reduction_units(self, solution_size: int) -> float:
        """Cost units of this reduction: attempts weighted by solution size.

        This is the accounting consumed by
        :meth:`repro.runtime.costs.CostModel.handling_cost`.  A *unit* is one
        match attempt over one atom of the local solution; ``match_attempts``
        only counts searches that were actually performed (index-refuted rules
        and already-inert solutions are free), so the charged virtual time
        shrinks exactly where the real interpreter's work does.
        """
        return self.match_attempts * max(1, solution_size)


#: Optional observer invoked after every reaction with
#: ``(rule, match, depth)``; the GinFlow agents use it for tracing.
ReactionObserver = Callable[[Rule, Match, int], None]


class ReductionEngine:
    """Reduce HOCL solutions to inertness.

    Parameters
    ----------
    externals:
        External function registry used to expand ``Call`` templates; a
        default registry (with ``list`` et al.) is created when omitted.
    max_steps:
        Safety bound on the number of reactions in one :meth:`reduce` call.
        Workflow programs always terminate, but user-supplied rules might
        not; exceeding the bound marks the report as non-inert instead of
        looping forever.
    observer:
        Optional callback invoked after each reaction.
    trace:
        Optional :class:`~repro.obs.tracer.Tracer`.  When active, every
        reduction phase is recorded as a span (``reduction.match`` /
        ``reduction.patch``, the index-maintenance share as an
        ``index_seconds`` attribute) and its seconds are added to
        :attr:`timings`.  A disabled tracer is normalised to ``None``: an
        untraced engine reads no clock and keeps no timings.  Tracing never
        changes what reduction does: history, ``match_attempts`` and the
        final solution are identical with and without it.
    trace_track:
        Trace track the spans land on (the hosting agent's name; the
        centralised executor uses ``"centralized"``).
    """

    def __init__(
        self,
        externals: ExternalRegistry | None = None,
        max_steps: int = 100_000,
        observer: ReactionObserver | None = None,
        trace: Tracer | None = None,
        trace_track: str = "reduction",
    ):
        self.externals = externals if externals is not None else default_registry()
        self.max_steps = int(max_steps)
        self.observer = observer
        self.trace = active_tracer(trace)
        self.trace_track = trace_track
        #: per-phase seconds (:data:`PHASES`) of every span this engine
        #: recorded; ``None`` untraced
        self.timings = None if self.trace is None else dict.fromkeys(PHASES, 0.0)

    # ----------------------------------------------------------------- public
    def reduce(self, solution: Multiset) -> ReductionReport:
        """Rewrite ``solution`` in place until it is inert (or the step limit hits)."""
        report = ReductionReport()
        self._reduce_level(solution, depth=0, report=report)
        return report

    def is_inert(self, solution: Multiset) -> bool:
        """Whether no rule can fire anywhere in ``solution`` (non-mutating)."""
        report = ReductionReport()
        return not self._has_applicable_rule(solution, report)

    # --------------------------------------------------------------- internal
    def _reduce_level(self, solution: Multiset, depth: int, report: ReductionReport) -> None:
        max_steps, trace = self.max_steps, self.trace
        while True:
            if report.reactions >= max_steps:
                report.inert = False
                return
            if solution.known_inert:
                # proven inert at this exact version: nothing below can fire
                # (any mutation in the subtree would have bumped the version
                # through the parent chain).
                return
            # 1. bring every nested solution to inertness first, in entry
            # order: only what the multiset still holds flagged, asked again
            # until nothing is left — the asking unflags what is now inert.
            nested = solution.unsettled_solutions()
            while nested:
                for inner in nested:
                    self._reduce_level(inner, depth + 1, report)
                    if report.reactions >= max_steps:
                        report.inert = False
                        return
                nested = solution.unsettled_solutions()
            # 2. then react at this level: the first rule, in priority order,
            # that matches fires once, then loop — the reaction may have
            # created new nested solutions or re-enabled nested rules.
            started = perf_counter() if trace is not None else 0.0
            for rule in solution.rules_by_priority():
                # an empty bucket under one of its patterns proves the rule cannot
                # match: the search — and its ``match_attempts`` charge — is skipped
                if not solution.has_all_candidates(rule.pattern_index_keys):
                    continue
                report.match_attempts += 1
                match = self._find_match_excluding_self(rule, solution)
                if match is not None:
                    if trace is not None:
                        self._record("match", started, perf_counter(), depth=depth, rule=rule.name)
                    self._apply(rule, match, solution, depth, report)
                    break
            else:
                if trace is not None:
                    self._record("match", started, perf_counter(), depth=depth)
                solution.note_inert()
                return

    def _has_applicable_rule(self, solution: Multiset, report: ReductionReport) -> bool:
        if solution.known_inert:
            return False
        for nested in solution.nested_solutions():
            if self._has_applicable_rule(nested, report):
                return True
        for rule in solution.rules_by_priority():
            if not solution.has_all_candidates(rule.pattern_index_keys):
                continue
            report.match_attempts += 1
            if self._find_match_excluding_self(rule, solution) is not None:
                return True
        # nothing can fire here or below: remember it (atoms untouched —
        # `is_inert` stays non-mutating, only the cache marker is set).
        solution.note_inert()
        return False

    #: ``(rule, solution)`` -> first match that does not consume the rule itself
    _find_match_excluding_self = staticmethod(first_match)

    def _record(self, phase: str, started: float, ended: float, **attrs: Any) -> None:
        """Record one ``reduction.<phase>`` span and add its seconds, and the
        ``index_seconds`` it carries, to :attr:`timings` (traced engines only)."""
        timings, trace = self.timings, self.trace
        assert timings is not None and trace is not None
        timings[phase] += ended - started
        timings["index"] += attrs.get("index_seconds", 0.0)
        trace.span(f"reduction.{phase}", self.trace_track, started, ended, **attrs)

    def _apply(self, rule: Rule, match: Match, solution: Multiset, depth: int, report: ReductionReport) -> None:
        """Fire ``rule`` on ``match`` through its rewrite delta: the patches edit
        the kept atoms' bodies, the consumed atoms leave the level and the
        produced ones join it."""
        trace = self.trace
        started = perf_counter() if trace is not None else 0.0
        delta = rule.delta
        # What outlives the first mutation is read now (an omega is copied out
        # of its solution at its first read): what the delta expands and
        # whatever an observer may read; the effect, a pure function of the bindings, runs now.
        bindings = match.bindings
        eager = delta.eager
        for name in bindings if eager is None or self.observer is not None else eager:
            bindings.atom(name)
        emitted = list(rule.effect(bindings) or ()) if rule.effect is not None else ()
        try:
            removed, added = delta.apply(match, solution, self.externals)
        except Exception as exc:  # noqa: BLE001 - context added
            raise ReductionError(f"rule {rule.name!r} failed to apply its rewrite delta: {exc}") from exc
        written = perf_counter() if trace is not None else 0.0
        if rule.one_shot:
            # the rule removes itself once fired (replace-one semantics)
            try:
                solution.remove_identical(rule)
            except KeyError:
                solution.discard(rule)
        if trace is not None:
            self._record("patch", started, written, rule=rule.name, depth=depth, index_seconds=perf_counter() - written)
        report.reactions += 1
        report.rule_fires[rule.name] = report.rule_fires.get(rule.name, 0) + 1
        # produced: the kept anchors plus the `produce` expansions
        consumed = len(match.consumed)
        report.history.append(ReactionRecord(rule.name, depth, consumed, consumed - len(removed) + len(added)))
        report.effects.extend(emitted)
        if self.observer is not None:
            self.observer(rule, match, depth)


def reduce_solution(
    solution: Multiset,
    externals: ExternalRegistry | None = None,
    max_steps: int = 100_000,
) -> ReductionReport:
    """Convenience wrapper: reduce ``solution`` with a fresh engine."""
    return ReductionEngine(externals=externals, max_steps=max_steps).reduce(solution)


def is_inert(solution: Multiset, externals: ExternalRegistry | None = None) -> bool:
    """Convenience wrapper: whether ``solution`` is inert."""
    return ReductionEngine(externals=externals).is_inert(solution)
