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
By default the engine is *incremental*: it relies on the dirty tracking of
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
  only ever consumes the first admissible match, so it asks for that.

All of it is trace-preserving — only searches and candidates guaranteed to
fail are skipped — so :attr:`ReductionReport.history` is identical to the
naive engine's (``incremental=False``), kept as the reference implementation
and as the baseline of the reduction benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.obs.tracer import Tracer, active as active_tracer

from .atoms import Atom
from .errors import ReductionError
from .externals import ExternalRegistry, default_registry
from .matching import Match, first_match
from .multiset import Multiset, atom_index_keys
from .rules import Rule

__all__ = ["ReductionReport", "ReactionRecord", "ReductionEngine", "reduce_solution", "is_inert"]


@dataclass
class ReactionRecord:
    """One rule firing, as recorded in a :class:`ReductionReport`.

    ``consumed`` counts the matched atoms and ``produced`` the atoms the
    firing left behind — products on the rebuild path, kept anchors plus
    ``produce`` expansions on the delta path.  A delta rule whose rebuild
    products list the kept fields first (the convention every workflow rule
    follows) records identical numbers on both paths.
    """

    rule: str
    depth: int
    consumed: int
    produced: int


@dataclass
class ReductionReport:
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
    timings:
        Wall-clock seconds spent per reduction phase: ``"match"`` (searching
        for applicable rules), ``"rewrite"`` (expanding full rebuild
        products), ``"patch"`` (applying in-place rewrite deltas, including
        the nested-solution edits they perform) and ``"index"`` (mutating
        the top-level multiset — removals, insertions and the index
        maintenance they imply).  Indicative, not deterministic; used to
        diagnose where a perf regression lives.
    rule_fires:
        Number of firings per rule name, aggregated across the whole
        reduction (and across merged reports).  ``sum(rule_fires.values())``
        always equals ``reactions``; the dynamic analyzer uses this to flag
        registered rules that never fired over a run or sweep.
    batches:
        Number of non-empty reaction batches applied by the batched engine
        (``ReductionEngine(batch=True)``).  Zero under the serial engine;
        ``batches <= reactions`` always, and the ratio measures how much
        per-level work the batching amortised.
    patched:
        Number of reactions applied through the in-place delta path
        (:class:`~repro.hocl.deltas.RewriteDelta`) rather than by rebuilding
        products; ``patched <= reactions`` always, and the ratio measures
        how much of the rewrite work the deltas absorbed.
    effects:
        What the fired rules' effect hooks returned, in firing order (see
        :class:`~repro.hocl.rules.Rule`): the report of one ``reduce`` call
        is the only sink an effect has.
    """

    reactions: int = 0
    match_attempts: int = 0
    inert: bool = True
    history: list[ReactionRecord] = field(default_factory=list)
    timings: dict[str, float] = field(
        default_factory=lambda: {"match": 0.0, "rewrite": 0.0, "patch": 0.0, "index": 0.0}
    )
    rule_fires: dict[str, int] = field(default_factory=dict)
    batches: int = 0
    patched: int = 0
    effects: list[Any] = field(default_factory=list)

    def merge(self, other: "ReductionReport") -> None:
        """Accumulate ``other`` into this report.

        Every counter is summed key-by-key: ``timings`` and ``rule_fires``
        keys present only in ``other`` are *added*, not dropped, so merged
        accounting stays balanced (``sum(rule_fires.values()) == reactions``)
        even when the two sides saw disjoint rule sets — the invariant the
        dynamic analyzer's accounting check relies on.
        """
        self.reactions += other.reactions
        self.match_attempts += other.match_attempts
        self.inert = self.inert and other.inert
        self.history.extend(other.history)
        self.effects.extend(other.effects)
        self.batches += other.batches
        self.patched += other.patched
        for phase, seconds in other.timings.items():
            self.timings[phase] = self.timings.get(phase, 0.0) + seconds
        for name, fires in other.rule_fires.items():
            self.rule_fires[name] = self.rule_fires.get(name, 0) + fires

    def reduction_units(self, solution_size: int) -> float:
        """Cost units of this reduction: attempts weighted by solution size.

        This is the accounting consumed by
        :meth:`repro.runtime.costs.CostModel.handling_cost`.  A *unit* is one
        match attempt over one atom of the local solution; under the
        incremental engine ``match_attempts`` only counts searches that were
        actually performed (index-refuted rules and already-inert solutions
        are free), so the charged virtual time shrinks exactly where the
        real interpreter's work does.
        """
        return self.match_attempts * max(1, solution_size)


#: Optional observer invoked after every reaction with
#: ``(rule, match, depth)``; the GinFlow agents use it for tracing.
ReactionObserver = Callable[[Rule, Match, int], None]


class _LevelFrontier:
    """The dirty-atom frontier of one solution level (batched engine state).

    The batched engine's central invariant: after a pass over a level, no
    rule can match a combination of atoms that are all *clean* (present and
    untouched since that pass) — any new match must consume at least one
    atom of the frontier: a product added by a reaction, or an atom whose
    nested solution reacted.  Each pass therefore only enumerates matches
    led by a frontier atom, instead of re-exhausting the whole level.

    ``version`` is the solution version at the last point where every
    mutation was accounted for in the frontier; a mismatch on re-entry means
    someone mutated the solution outside the engine (an agent delivering a
    message, a test poking atoms in), and the only safe answer is a full
    rescan (``full=True``, the state of a freshly created frontier).
    """

    __slots__ = ("dirty", "next_dirty", "version", "full")

    def __init__(self) -> None:
        self.dirty: dict[int, Atom] = {}
        self.next_dirty: dict[int, Atom] = {}
        self.version = -1
        self.full = True

    def mark(self, atom: Atom) -> None:
        """Add ``atom`` to the current frontier (consumed by the next pass)."""
        self.dirty[id(atom)] = atom

    def mark_next(self, atom: Atom) -> None:
        """Add ``atom`` to the next frontier (a product of the running pass)."""
        self.next_dirty[id(atom)] = atom

    def forget(self, atom: Atom) -> None:
        """Drop a consumed atom from both frontiers."""
        self.dirty.pop(id(atom), None)
        self.next_dirty.pop(id(atom), None)

    def advance(self) -> None:
        """Finish a pass: the atoms it touched become the next frontier."""
        self.dirty = self.next_dirty
        self.next_dirty = {}
        self.full = False

    def reset(self) -> None:
        """Invalidate everything: the next pass must rescan the whole level."""
        self.dirty = {}
        self.next_dirty = {}
        self.full = True


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
    incremental:
        When ``True`` (the default) the engine caches inertness per
        sub-solution and prunes rules through the multiset's head-symbol
        index; ``False`` restores the naive re-reduce-everything behaviour
        (same traces, used as the benchmark baseline).
    batch:
        When ``True``, each pass over a level applies *every* applicable
        match with pairwise-disjoint reactant sets (decided on atom
        identity) in one batch, instead of restarting the scan after every
        single reaction — and, crucially, each pass after the first only
        searches from the level's dirty-atom *frontier* (products of the
        previous pass plus atoms whose nested solutions reacted), because a
        pass establishes that no rule can match clean atoms alone (see
        :class:`_LevelFrontier`).  Batching preserves the final inert
        solution and the reaction multiset (``rule_fires``) for the
        confluent programs GinFlow uses, but the *order* of
        :attr:`ReductionReport.history` may differ from the serial
        engine's, because several same-level reactions happen before nested
        solutions are re-descended.  ``ReductionReport.batches`` counts the
        applied batches.
    delta:
        When ``True`` (the default), rules that carry a
        :class:`~repro.hocl.deltas.RewriteDelta` fire through it: matched
        atoms stay in place (minus the delta's consume set) and the delta's
        patches edit their nested solutions under copy-on-write, instead of
        removing everything matched and rebuilding products.  ``False``
        forces the classic rebuild path for every rule — the reference
        semantics the delta-vs-rebuild parity harness compares against.
        Both paths produce structurally identical final solutions and the
        same ``rule_fires``; ``ReductionReport.patched`` counts the
        reactions the delta path absorbed.
    trace:
        Optional :class:`~repro.obs.tracer.Tracer`: when active, every
        timing window the engine accumulates into
        :attr:`ReductionReport.timings` is also recorded as a span
        (``reduction.match`` / ``reduction.rewrite`` / ``reduction.patch``,
        with the index-maintenance share as an ``index_seconds`` attribute)
        using the *same* ``perf_counter`` values — span totals therefore
        reconcile with the report.  A disabled tracer is normalised to
        ``None`` and costs one pointer check per window.  Tracing never
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
        incremental: bool = True,
        batch: bool = False,
        delta: bool = True,
        trace: Tracer | None = None,
        trace_track: str = "reduction",
    ):
        self.externals = externals if externals is not None else default_registry()
        self.max_steps = int(max_steps)
        self.observer = observer
        self.incremental = bool(incremental)
        self.batch = bool(batch)
        self.delta = bool(delta)
        self.trace = active_tracer(trace)
        self.trace_track = trace_track
        #: per-solution frontier states of the batched engine, keyed by
        #: ``id(solution)``; the stored solution reference both keeps the id
        #: stable and detects a recycled id.  Allocated by the first batched pass.
        self._frontiers: dict[int, tuple[Multiset, _LevelFrontier]] | None = None

    # ----------------------------------------------------------------- public
    def reduce(self, solution: Multiset) -> ReductionReport:
        """Rewrite ``solution`` in place until it is inert (or the step limit hits)."""
        report = ReductionReport()
        self._reduce_level(solution, depth=0, report=report)
        return report

    def step(self, solution: Multiset) -> bool:
        """Apply at most one reaction (anywhere in the solution tree).

        Returns ``True`` if a reaction was applied.  Useful for debugging and
        for tests that need to observe intermediate states.
        """
        report = ReductionReport()
        return self._try_one_reaction(solution, depth=0, report=report)

    def is_inert(self, solution: Multiset) -> bool:
        """Whether no rule can fire anywhere in ``solution`` (non-mutating)."""
        report = ReductionReport()
        return not self._has_applicable_rule(solution, report)

    # --------------------------------------------------------------- internal
    def _reduce_level(self, solution: Multiset, depth: int, report: ReductionReport) -> None:
        if self.batch:
            self._reduce_level_batch(solution, depth, report)
            return
        incremental = self.incremental
        while True:
            if report.reactions >= self.max_steps:
                report.inert = False
                return
            if incremental and solution.known_inert:
                # proven inert at this exact version: nothing below can fire
                # (any mutation in the subtree would have bumped the version
                # through the parent chain).
                return
            # 1. bring every nested solution to inertness first
            if not self._reduce_nested(solution, depth, report):
                return
            # 2. then react at this level: one reaction, then loop — the
            # reaction may have created new nested solutions or re-enabled
            # nested rules.
            if not self._apply_first_applicable(solution, depth, report):
                if incremental:
                    solution.note_inert()
                return

    def _reduce_nested(
        self, solution: Multiset, depth: int, report: ReductionReport, mark: "Callable[[Atom], None] | None" = None
    ) -> bool:
        """Bring the solutions nested in ``solution`` to inertness, in entry order.

        ``mark`` is told, at once, each top-level atom below which something
        reacted; ``False`` means the step limit cut the descent short.  The
        incremental engine only visits the entries the multiset still holds
        flagged, and asks again until none is left: a sibling reduced later can
        re-open an aliased solution.  The naive engine walks every entry once.
        """
        incremental = self.incremental
        items = solution.unsettled_items() if incremental else solution.nested_solution_items()
        while items:
            for atom, nested in items:
                if incremental and nested.known_inert:
                    continue  # an alias, reduced earlier in this round
                before = report.reactions
                self._reduce_level(nested, depth + 1, report)
                if mark is not None and report.reactions != before:
                    mark(atom)
                if report.reactions >= self.max_steps:
                    report.inert = False
                    return False
            if not incremental:
                break
            items = solution.unsettled_items()
        return True

    def _frontier_for(self, solution: Multiset) -> _LevelFrontier:
        """The frontier state of ``solution``, reset if the level changed
        outside the engine's own (tracked) mutations."""
        key = id(solution)
        if self._frontiers is None:
            self._frontiers = {}
        item = self._frontiers.get(key)
        if item is None or item[0] is not solution:
            state = _LevelFrontier()
            self._frontiers[key] = (solution, state)
        else:
            state = item[1]
            if state.version != solution.version:
                state.reset()
        return state

    def mark_frontier(self, solution: Multiset, atoms: "list[Atom]") -> None:
        """Account for external mutations below the given top-level ``atoms``.

        The sharded reducer (:mod:`repro.hocl.parallel`) reduces nested
        sub-solutions with *other* engine instances, which bumps the
        top-level version behind this engine's back; marking the owning
        atoms dirty here (after the shard phase, before the next surface
        pass) keeps the frontier valid without the full rescan an unexplained
        version bump would otherwise force.
        """
        if not self.batch:
            return
        item = self._frontiers.get(id(solution)) if self._frontiers else None
        if item is None or item[0] is not solution:
            return  # no state yet: the first surface pass scans everything
        state = item[1]
        for atom in atoms:
            state.mark(atom)
        state.version = solution.version

    def _reduce_level_batch(self, solution: Multiset, depth: int, report: ReductionReport) -> None:
        incremental = self.incremental
        if report.reactions >= self.max_steps:
            report.inert = False
            return
        if incremental and solution.known_inert:
            return
        state = self._frontier_for(solution)
        while True:
            # 1. bring every nested solution to inertness first; any nested
            # activity makes the owning atom part of this level's frontier.
            before = report.reactions
            if not self._reduce_nested(solution, depth, report, state.mark):
                state.version = solution.version
                return
            nested_active = report.reactions != before
            # 2. then react at this level: one frontier pass applies every
            # applicable disjoint match involving a dirty atom.
            applied = self._apply_batch(solution, depth, report, state)
            state.version = solution.version
            if report.reactions >= self.max_steps:
                report.inert = False
                return
            if not applied and not nested_active:
                if incremental:
                    solution.note_inert()
                return

    def _try_one_reaction(self, solution: Multiset, depth: int, report: ReductionReport) -> bool:
        if self.incremental and solution.known_inert:
            return False
        for nested in solution.nested_solutions():
            if self._try_one_reaction(nested, depth + 1, report):
                return True
        return self._apply_first_applicable(solution, depth, report)

    def _apply_first_applicable(
        self, solution: Multiset, depth: int, report: ReductionReport
    ) -> bool:
        started = perf_counter()
        for rule in solution.rules_by_priority():
            # an empty bucket under one of its patterns proves the rule cannot
            # match: the search — and its ``match_attempts`` charge — is skipped
            if self.incremental and not solution.has_all_candidates(rule.pattern_index_keys):
                continue
            report.match_attempts += 1
            match = self._find_match_excluding_self(rule, solution)
            if match is None:
                continue
            now = perf_counter()
            report.timings["match"] += now - started
            if self.trace is not None:
                self.trace.span("reduction.match", self.trace_track, started, now, depth=depth, rule=rule.name)
            self._apply(rule, match, solution, depth, report)
            return True
        now = perf_counter()
        report.timings["match"] += now - started
        if self.trace is not None:
            self.trace.span("reduction.match", self.trace_track, started, now, depth=depth)
        return False

    def reduce_level_once(self, solution: Multiset, report: ReductionReport, depth: int = 0) -> bool:
        """React at the top level of ``solution`` only (no nested descent).

        Applies one reaction (serial) or one frontier batch of disjoint
        reactions (``batch=True``) and returns whether anything fired.  The
        sharded reducer (:mod:`repro.hocl.parallel`) alternates this with
        parallel sub-solution reduction — see :meth:`mark_frontier` for how
        the two stay consistent; nested solutions must already be inert for
        the result to be HOCL-faithful, exactly as in :meth:`reduce`.
        """
        if self.batch:
            state = self._frontier_for(solution)
            applied = self._apply_batch(solution, depth, report, state)
            state.version = solution.version
            return applied > 0
        return self._apply_first_applicable(solution, depth, report)

    def _apply_batch(
        self, solution: Multiset, depth: int, report: ReductionReport, state: _LevelFrontier
    ) -> int:
        """One frontier pass: apply every applicable disjoint *new* match.

        A fresh (or invalidated) frontier scans the whole level once, like
        the serial engine's final failing attempt.  Every later pass only
        enumerates matches that consume at least one frontier atom — for
        each rule, one enumeration per pattern position with that position
        pinned to the frontier candidates, the other patterns running in
        declaration order over binding-narrowed buckets
        (:func:`~repro.hocl.matching.first_match`).  By the frontier
        invariant (see :class:`_LevelFrontier`) matches among clean atoms
        cannot exist, so a pass that applies nothing proves the level inert
        as reliably as a full exhaustion — at a cost proportional to what
        changed, not to the level size.

        Matches fire as soon as they are found, and the rule's enumeration
        then *restarts* under the grown claim set: a fresh search excludes
        claimed atoms at candidate-selection time, whereas resuming a
        suspended generator would keep constructing full matches below an
        already-claimed choice (a fan-out atom with many destinations builds
        one complete match per destination) only to discard them.  Restarting
        also freezes the claim set for the lifetime of each search, so an
        enumeration never goes stale mid-flight.  Products join the *next*
        frontier; a produced rule invalidates the whole frontier, since a
        new rule can match atoms no pass needed to revisit.

        The claim map holds strong references, not bare ids: a consumed atom
        may otherwise be freed mid-pass and a *product* allocated at the
        recycled address, aliasing the dead claim and silently excluding the
        product from the rest of the pass (heap-layout-dependent
        ``match_attempts``).  Only what a reaction removed is claimed: a kept
        delta anchor stays matchable, in the role of a fresh product.
        """
        claimed: dict[int, object] = {}

        def is_claimed(atom: object) -> bool:
            return id(atom) in claimed

        applied = 0
        rescan = False
        started = perf_counter()
        if state.full:
            dirty_entries = None
        else:
            if not state.dirty:
                state.advance()
                return 0
            # map frontier atoms back to their occurrence entries through
            # each atom's most specific index bucket (a handful of entries)
            dirty_entries = []
            for atom in state.dirty.values():
                for entry in solution.live_entries(atom_index_keys(atom)[0]):
                    if entry.atom is atom:
                        dirty_entries.append(entry)
        for rule in solution.rules_by_priority():
            if id(rule) in claimed:
                continue  # consumed by an earlier reaction of this pass
            if self.incremental and not solution.has_all_candidates(rule.pattern_index_keys):
                continue
            charged = False
            while True:
                # one fresh first-match search per fired reaction
                match = None
                if dirty_entries is None:
                    if not charged:
                        report.match_attempts += 1
                        charged = True
                    match = first_match(rule, solution, is_claimed)
                else:
                    live = [
                        entry for entry in dirty_entries if id(entry.atom) not in claimed
                    ]
                    leads = []
                    for lead, key in enumerate(rule.pattern_index_keys):
                        # structural pre-filter: an enumeration whose every
                        # pinned candidate quick-rejects cannot yield; skipping
                        # it skips the candidate iteration of the patterns
                        # before the pinned one (a memory has most on record).
                        pattern = rule.patterns[lead]
                        memory = solution.memory_for(pattern, key)
                        lead_entries = []
                        for e in live:
                            if (key is None or key in atom_index_keys(e.atom)) and (
                                memory is None or e in memory.entries
                            ):
                                if not pattern.quick_reject(e.atom):
                                    lead_entries.append(e)
                                elif memory is not None:
                                    memory.refute(e)
                        if lead_entries:
                            leads.append((lead, lead_entries))
                    if not leads:
                        break  # no frontier atom can feed this rule: no search
                    if not charged:
                        report.match_attempts += 1
                        charged = True
                    for lead, lead_entries in leads:
                        match = first_match(rule, solution, is_claimed, lead, lead_entries)
                        if match is not None:
                            break
                if match is None:
                    break
                if report.reactions >= self.max_steps:
                    now = perf_counter()
                    report.timings["match"] += now - started
                    if self.trace is not None:
                        self.trace.span("reduction.match", self.trace_track, started, now, depth=depth)
                    return applied
                now = perf_counter()
                report.timings["match"] += now - started
                if self.trace is not None:
                    self.trace.span(
                        "reduction.match", self.trace_track, started, now, depth=depth, rule=rule.name
                    )
                removed, dirty, kept = self._apply(rule, match, solution, depth, report)
                applied += 1
                for atom in [*removed, rule] if rule.one_shot else removed:
                    claimed[id(atom)] = atom
                    state.forget(atom)
                if kept and dirty_entries is not None:
                    # delta path: the kept anchors play the role of fresh
                    # rebuild products — never claimed, so matchable again
                    # within this pass, but, like products, no lead of it.
                    kept_ids = {id(atom) for atom in kept}
                    dirty_entries = [entry for entry in dirty_entries if id(entry.atom) not in kept_ids]
                for atom in dirty:
                    state.mark_next(atom)
                    if atom.kind == "rule":
                        rescan = True
                started = perf_counter()
                if rule.one_shot:
                    break  # replace-one: the rule is gone
        now = perf_counter()
        report.timings["match"] += now - started
        if self.trace is not None:
            self.trace.span("reduction.match", self.trace_track, started, now, depth=depth)
        if applied:
            report.batches += 1
        if rescan:
            state.reset()
        else:
            state.advance()
        return applied

    def _has_applicable_rule(self, solution: Multiset, report: ReductionReport) -> bool:
        if self.incremental and solution.known_inert:
            return False
        for nested in solution.nested_solutions():
            if self._has_applicable_rule(nested, report):
                return True
        for rule in solution.rules_by_priority():
            if self.incremental and not solution.has_all_candidates(rule.pattern_index_keys):
                continue
            report.match_attempts += 1
            if self._find_match_excluding_self(rule, solution) is not None:
                return True
        if self.incremental:
            # nothing can fire here or below: remember it (atoms untouched —
            # `is_inert` stays non-mutating, only the cache marker is set).
            solution.note_inert()
        return False

    #: ``(rule, solution)`` -> first match that does not consume the rule itself
    _find_match_excluding_self = staticmethod(first_match)

    def _apply(
        self, rule: Rule, match: Match, solution: Multiset, depth: int, report: ReductionReport
    ) -> tuple[list[Atom], list[Atom], list[Atom]]:
        """Fire ``rule`` on ``match``; returns ``(removed, dirty, kept)``.

        ``removed`` lists the top-level atoms the reaction took out of the
        solution and ``dirty`` the atoms it left needing another look —
        inserted products plus, on the delta path, every kept matched atom.
        ``kept`` is the delta path's subset of ``dirty`` that never left the
        level (empty on the rebuild path): the batched engine gives those
        the role of the rebuild path's replacement products, so both paths
        compose the same batches.
        """
        started = perf_counter()
        delta = rule.delta if self.delta else None
        # What outlives the first mutation is read now (an omega is copied out
        # of its solution at its first read): what the delta expands between
        # patches — the rebuild path expands everything first — and whatever an
        # observer may read; the effect, a pure function of the bindings, runs now.
        bindings = match.bindings
        eager = () if delta is None else delta.eager
        for name in bindings if eager is None or self.observer is not None else eager:
            bindings.atom(name)
        emitted = list(rule.effect(bindings) or ()) if rule.effect is not None else ()
        if delta is not None:
            try:
                removed, added = delta.apply(match, solution, self.externals)
            except Exception as exc:  # noqa: BLE001 - context added
                raise ReductionError(
                    f"rule {rule.name!r} failed to apply its rewrite delta: {exc}"
                ) from exc
            patched_at = perf_counter()
            report.timings["patch"] += patched_at - started
            if rule.one_shot:
                # the rule removes itself once fired (replace-one semantics)
                try:
                    solution.remove_identical(rule)
                except KeyError:
                    solution.discard(rule)
            indexed_at = perf_counter()
            report.timings["index"] += indexed_at - patched_at
            report.patched += 1
            if self.trace is not None:
                self.trace.span(
                    "reduction.patch",
                    self.trace_track,
                    started,
                    patched_at,
                    rule=rule.name,
                    depth=depth,
                    index_seconds=indexed_at - patched_at,
                )
            consume = delta.consume
            kept = [atom for index, atom in enumerate(match.consumed) if index not in consume]
            dirty = kept + added
        else:
            try:
                products = rule.produce(match, self.externals)
            except Exception as exc:  # noqa: BLE001 - context added
                raise ReductionError(
                    f"rule {rule.name!r} failed to produce its products: {exc}"
                ) from exc
            produced_at = perf_counter()
            report.timings["rewrite"] += produced_at - started
            for consumed in match.consumed:
                solution.remove_identical(consumed)
            if rule.one_shot:
                # the rule removes itself once fired (replace-one semantics)
                try:
                    solution.remove_identical(rule)
                except KeyError:
                    solution.discard(rule)
            for atom in products:
                solution.add(atom)
            indexed_at = perf_counter()
            report.timings["index"] += indexed_at - produced_at
            if self.trace is not None:
                self.trace.span(
                    "reduction.rewrite",
                    self.trace_track,
                    started,
                    produced_at,
                    rule=rule.name,
                    depth=depth,
                    index_seconds=indexed_at - produced_at,
                )
            removed = list(match.consumed)
            dirty = products
            kept = []
        report.reactions += 1
        report.rule_fires[rule.name] = report.rule_fires.get(rule.name, 0) + 1
        report.history.append(
            ReactionRecord(
                rule=rule.name, depth=depth, consumed=len(match.consumed), produced=len(dirty)
            )
        )
        report.effects.extend(emitted)
        if self.observer is not None:
            self.observer(rule, match, depth)
        return removed, dirty, kept


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
