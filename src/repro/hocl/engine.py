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
  plausible-candidate memory: what its pre-check has not refuted;
* a rule is tried by its :class:`~repro.hocl.deltas.Reaction`, one generated
  function that searches for the first admissible match — patterns in
  declaration order, candidates in bucket order — and fires the rule there,
  on the search's own locals: no match record is built;
* a rule fires through its :class:`~repro.hocl.deltas.RewriteDelta`, derived
  from its two sides: the atoms a product restates stay in place and the
  patches edit their nested solutions, instead of everything matched being
  removed and the products rebuilt.

All of it is trace-preserving — only searches and candidates guaranteed to
fail are skipped — so :attr:`ReductionReport.history` is identical to a naive
walk's that visits every nested solution and tries every rule.  Every step
the engine takes is one step of HOCL's one-step relation; that relation,
stated apart from this package, and the naive walk are what
``tests/hocl_semantics.py`` and ``tests/reduction_reference.py`` hold the
engine to.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.obs.tracer import Tracer, active as active_tracer
from repro.records import Record

from .externals import ExternalRegistry, default_registry
from .multiset import Multiset

__all__ = ["PHASES", "Record", "ReductionReport", "ReactionRecord", "ReductionEngine", "reduce_solution"]

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
        trace: Tracer | None = None,
        trace_track: str = "reduction",
    ):
        self.externals = externals if externals is not None else default_registry()
        self.max_steps = int(max_steps)
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

    # --------------------------------------------------------------- internal
    def _reduce_level(self, solution: Multiset, depth: int, report: ReductionReport) -> None:
        max_steps, trace = self.max_steps, self.trace
        clock = perf_counter if trace is not None else None
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
            nested = solution.unsettled_solutions() if solution._flagged else ()
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
            index = solution._index
            for rule in solution.rules_by_priority() if solution._rules_dirty else solution._rules_cache:
                # an empty bucket under one of its patterns proves the rule cannot
                # match: the search — and its ``match_attempts`` charge — is
                # skipped (`has_all_candidates`, inline)
                for key in rule.pattern_index_keys:
                    if key is not None and key not in index:
                        break
                else:
                    report.match_attempts += 1
                    fired = rule.reaction.run(solution, rule, self.externals, report.effects, clock)
                    if fired is None:
                        continue
                    produced, searched = fired
                    written = perf_counter() if trace is not None else 0.0
                    if rule.one_shot:  # an atom of this level, which its own firing never removes
                        solution.remove_identical(rule)
                    if trace is not None:
                        self._record("match", started, searched, depth=depth, rule=rule.name)
                        self._record("patch", searched, written, rule=rule.name, depth=depth, index_seconds=perf_counter() - written)
                    report.reactions += 1
                    report.rule_fires[rule.name] = report.rule_fires.get(rule.name, 0) + 1
                    report.history.append(ReactionRecord(rule.name, depth, len(rule.patterns), produced))
                    break
            else:
                if trace is not None:
                    self._record("match", started, perf_counter(), depth=depth)
                solution._inert_version = solution._version  # `note_inert`
                return

    def _record(self, phase: str, started: float, ended: float, **attrs: Any) -> None:
        """Record one ``reduction.<phase>`` span and add its seconds, and the
        ``index_seconds`` it carries, to :attr:`timings` (traced engines only)."""
        timings, trace = self.timings, self.trace
        assert timings is not None and trace is not None
        timings[phase] += ended - started
        timings["index"] += attrs.get("index_seconds", 0.0)
        trace.span(f"reduction.{phase}", self.trace_track, started, ended, **attrs)


def reduce_solution(
    solution: Multiset,
    externals: ExternalRegistry | None = None,
    max_steps: int = 100_000,
) -> ReductionReport:
    """Convenience wrapper: reduce ``solution`` with a fresh engine."""
    return ReductionEngine(externals=externals, max_steps=max_steps).reduce(solution)

