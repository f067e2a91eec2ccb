"""The reference reductions the engine is held to (a helper module, not a test file).

``repro.hocl.engine.ReductionEngine`` is one incremental loop that tries every
rule by its reaction: one generated function that searches its left-hand side
and fires the delta derived from its two sides where the first match holds.
What it replaced lives on here, each oracle swapping out one part — the walk,
the search or the rule application:

* :class:`TwoStepEngine` — the same walk, every rule found by its search
  (``first_match``) and then fired by its delta, interpreted
  (:func:`apply_delta`): the two steps one reaction replaced;
* :class:`NaiveEngine` — the naive walk: every nested solution visited, every
  rule searched, no inertness stamp read or written, no index refutation;
* :class:`BruteForceEngine` — the naive walk over the interpreted matcher of
  ``matcher_reference.py``, scanning every atom of the level for every pattern;
* :class:`RebuildEngine` — every rule fires by its rebuild form: everything
  matched leaves the level and the products are expanded;
* :class:`RepositioningDelta` (:func:`repositioned`) — the delta application
  that kept anchors in place replaced, written into the reaction: matched
  atoms leave and the kept ones re-enter at the end;
* :func:`expand` and :func:`apply_delta` — the interpreted template expansion
  and delta application the generated fire replaced, which the two-step
  oracles fire by;
* :func:`watch_reactions` — every reaction an engine runs handed to a check.

The parity contract, stated once (:func:`assert_parity`): against an oracle
that searches like it, the engine reaches the same final solution
(``content_hash``) and fires the same rules (``rule_fires``) after the same
searches (``match_attempts``).  Against the naive walk, which
searches more by design, the reaction history is identical in order.  The
simulated timeline, pinned by the 51 digest cells of
``tests/fixtures/sim_timeline_digests.json``, depends on nothing else.
"""

from time import perf_counter

from repro.hocl import (
    Call,
    ExternalFunctionError,
    ListAtom,
    ListTemplate,
    Match,
    PatternError,
    ReductionEngine,
    ReductionError,
    Ref,
    Rule,
    SolutionTemplate,
    Splice,
    Subsolution,
    TupleAtom,
    TupleTemplate,
    default_registry,
    to_atom,
)
from repro.hocl.deltas import PatchAdd, Reaction, RewriteDelta
from repro.hocl.engine import ReactionRecord
from repro.hocl.templates import coerce
from repro.hoclflow import encode_workflow
from repro.hoclflow.generic_rules import register_workflow_externals
from repro.services import InvocationContext, ServiceRegistry

import matcher_reference


class TwoStepEngine(ReductionEngine):
    """The engine's walk, every rule found by :meth:`_find_match_excluding_self`
    and then fired by :meth:`_apply`: its delta, interpreted."""

    def _reduce_level(self, solution, depth, report):
        while True:
            if report.reactions >= self.max_steps:
                report.inert = False
                return
            if solution.known_inert:
                return
            nested = solution.unsettled_solutions() if solution._flagged else ()
            while nested:
                for inner in nested:
                    self._reduce_level(inner, depth + 1, report)
                    if report.reactions >= self.max_steps:
                        report.inert = False
                        return
                nested = solution.unsettled_solutions()
            for rule in solution.rules_by_priority():
                if not solution.has_all_candidates(rule.pattern_index_keys):
                    continue
                report.match_attempts += 1
                match = self._find_match_excluding_self(rule, solution)
                if match is not None:
                    self._apply(rule, match, solution, depth, report)
                    break
            else:
                solution.note_inert()
                return

    def _apply(self, rule, match, solution, depth, report):
        bindings = match.bindings
        if self.observer is not None:  # what it reads after the reaction is read now
            for name in bindings:
                bindings.atom(name)
        emitted = list(rule.effect(*map(bindings.value, rule.effect_names)) or ()) if rule.effect is not None else ()
        try:
            removed, added = apply_delta(rule.delta, match, solution, self.externals)
        except Exception as exc:
            raise ReductionError(f"rule {rule.name!r} failed to apply its rewrite delta: {exc}") from exc
        if rule.one_shot:
            try:
                solution.remove_identical(rule)
            except KeyError:
                solution.discard(rule)
        report.reactions += 1
        report.rule_fires[rule.name] = report.rule_fires.get(rule.name, 0) + 1
        consumed = len(match.consumed)
        report.history.append(ReactionRecord(rule.name, depth, consumed, consumed - len(removed) + len(added)))
        report.effects.extend(emitted)
        if self.observer is not None:
            self.observer(rule, match, depth)


class NaiveEngine(TwoStepEngine):
    """Re-reduce everything: the trace the incremental engine must reproduce."""

    def _reduce_level(self, solution, depth, report):
        while True:
            if report.reactions >= self.max_steps:
                report.inert = False
                return
            for nested in solution.nested_solutions():
                self._reduce_level(nested, depth + 1, report)
                if report.reactions >= self.max_steps:
                    report.inert = False
                    return
            if not self._apply_first_applicable(solution, depth, report):
                return

    def _apply_first_applicable(self, solution, depth, report):
        for rule in solution.rules_by_priority():
            report.match_attempts += 1
            match = self._find_match_excluding_self(rule, solution)
            if match is not None:
                self._apply(rule, match, solution, depth, report)
                return True
        return False


class BruteForceEngine(NaiveEngine):
    """The reference search: every atom of the level, in solution order, for
    every pattern — no index, no candidate memory, and the interpreted
    ``matcher_reference.match_sites`` instead of the compiled patterns."""

    @staticmethod
    def _find_match_excluding_self(rule, solution):
        entries = list(solution.live_entries())
        def search(index, used, env, sites):
            if index == len(rule.patterns):
                if matcher_reference.holds(rule.condition, env):
                    taken = [entries[position] for position in used]
                    yield Match(env, [entry.atom for entry in taken], (*taken, *sites))
                return
            for position, entry in enumerate(entries):
                if position not in used:
                    for extended, below in matcher_reference.match_sites(rule.patterns[index], entry.atom, env):
                        yield from search(index + 1, used + [position], extended, sites + below)

        for match in search(0, [], dict(rule.given), ()):
            if not any(consumed is rule for consumed in match.consumed):
                return match
        return None


class RebuildEngine(TwoStepEngine):
    """Every rule fires by its rebuild form (products expanded, nothing patched)."""

    def _apply(self, rule, match, solution, depth, report):
        if self.observer is not None:  # what it reads after the reaction is read now
            for name in match.bindings:
                match.bindings.atom(name)
        emitted = list(rule.effect(*map(match.bindings.value, rule.effect_names)) or ()) if rule.effect is not None else ()
        try:
            products = list(match.consumed) if rule.keep_matched else []
            products += expand_all(rule.products, match.bindings, self.externals)
        except Exception as exc:
            raise ReductionError(f"rule {rule.name!r} failed to produce its products: {exc}") from exc
        for consumed in match.consumed:
            solution.remove_identical(consumed)
        if rule.one_shot:
            try:
                solution.remove_identical(rule)
            except KeyError:
                solution.discard(rule)
        for atom in products:
            solution.add(atom)
        report.reactions += 1
        report.rule_fires[rule.name] = report.rule_fires.get(rule.name, 0) + 1
        report.history.append(ReactionRecord(rule.name, depth, len(match.consumed), len(products)))
        report.effects.extend(emitted)
        if self.observer is not None:
            self.observer(rule, match, depth)


class RepositioningDelta(RewriteDelta):
    """Every matched atom leaves the level and the kept ones re-enter at its
    end, where the rebuild form appends its replacement products."""

    __slots__ = ()

    def emit(self, out):
        added, joining = [], []
        if self.produce:
            added = out.adding("solution", self.produce)
            joining, out.edits = out.edits, []
        for op in self.ops:
            op.emit(out)
        matched = range(len(self.patterns))
        for index in matched:
            out.edit(f"solution._remove_entry({out.at(index)})")
        for index in matched:
            if index not in self.consume:
                out.edit(f"solution.add({out.at(index)}.atom)")
        out.lines += [*out.edits, *joining]
        out.edits = []
        return added


def _copied(atom):
    return atom.copy() if atom._mutable else atom


_BUILT = {TupleTemplate: TupleAtom, SolutionTemplate: Subsolution, ListTemplate: ListAtom}


def expand(template, bindings, externals=None):
    """The atoms ``template`` (or a literal) produces under ``bindings``,
    interpreted: what holds a solution is a copy."""
    if isinstance(template, (Ref, Splice)):
        name, ref = template.name, isinstance(template, Ref)
        if name not in bindings:
            raise PatternError(f"product references unbound {'variable' if ref else 'omega'} {name!r}")
        value = bindings[name]
        if not isinstance(value, list):
            return [_copied(to_atom(value))]
        if ref:
            raise PatternError(f"variable {name!r} is an omega binding; use Splice({name!r})")
        return [_copied(to_atom(item)) for item in value]
    if type(template) in _BUILT:
        return [_BUILT[type(template)](expand_all(template.elements, bindings, externals))]
    if isinstance(template, Call):
        if externals is None:
            raise ExternalFunctionError(f"rule product calls {template.function!r} but no external registry is available")
        return coerce(externals.invoke(template.function, expand_all(template.arguments, bindings, externals), bindings))
    return [_copied(to_atom(template))]


def expand_all(templates, bindings, externals=None):
    """The flat list of atoms ``templates`` produce, in order."""
    return [atom for template in templates for atom in expand(template, bindings, externals)]


def apply_delta(delta, match, solution, externals):
    """``delta`` fired on ``match``, interpreted, as its generated fire does it:
    everything it adds expanded first (``produce``, then each ``PatchAdd``'s
    templates), then the patches edit the solutions at their sites, the
    consumed atoms leave through their entries and the ``produce`` expansions
    join the level.  Returns ``(removed, added)``."""
    bindings, sites = match.bindings, match.sites
    added = expand_all(delta.produce, bindings, externals)
    patched = [expand_all(op.templates, bindings, externals) if isinstance(op, PatchAdd) else None for op in delta.ops]
    for op, atoms in zip(delta.ops, patched):
        for atom in atoms or ():
            sites[op.site].add(atom)
        for entry in () if atoms is not None else op.entries:
            sites[op.site]._remove_entry(sites[entry])
    for index in delta.consume:
        solution._remove_entry(sites[index])
    for atom in added:
        solution.add(atom)
    return [match.consumed[index] for index in delta.consume], added


def watch_reactions(monkeypatch, watcher):
    """Hand every reaction any engine runs to ``watcher(run, solution, owner,
    externals, effects, observed, clock)``, ``run`` the reaction itself: it
    answers for the reaction."""
    slot = Reaction.__dict__["run"]

    def get(reaction):
        try:
            run = slot.__get__(reaction, Reaction)
        except AttributeError:  # not written yet: its first run writes it
            run = reaction._first
        return lambda *args: watcher(run, *args)

    monkeypatch.setattr(Reaction, "run", property(get, slot.__set__))


class RepositionedRule(Rule):
    """A rule firing through a :class:`RepositioningDelta` of the delta it derives."""

    __slots__ = ("_repositioned",)

    @property
    def delta(self):
        try:
            return self._repositioned
        except AttributeError:
            derived = super().delta
            self._repositioned = RepositioningDelta(derived.ops, derived.consume, derived.produce, derived.patterns)
            return self._repositioned


def repositioned(rule):
    """A copy of ``rule`` firing through a :class:`RepositioningDelta` of its derived delta."""
    return RepositionedRule(
        rule.name,
        rule.patterns,
        rule.products,
        condition=rule.condition,
        one_shot=rule.one_shot,
        keep_matched=rule.keep_matched,
        effect=rule.effect,
        priority=rule.priority,
        given=rule.given,
    )


def trace(report):
    """The reaction history as comparable tuples."""
    return [(r.rule, r.depth, r.consumed, r.produced) for r in report.history]


def assert_parity(ours, theirs):
    """The parity contract: ``ours`` and ``theirs`` are ``(report, solution)`` pairs."""
    (report, solution), (reference, reference_solution) = ours, theirs
    assert report.inert and reference.inert
    assert solution.content_hash() == reference_solution.content_hash()
    assert report.rule_fires == reference.rule_fires
    assert report.match_attempts == reference.match_attempts


def reduce_workflow(workflow, engine_class=ReductionEngine, max_steps=5_000_000, **options):
    """One centralised reduction of ``workflow``'s encoding by ``engine_class``,
    services resolved as the centralised executor resolves them; returns
    ``(report, solution, seconds)``, the seconds those of ``reduce`` alone."""
    encoding = encode_workflow(workflow)
    solution = encoding.to_multiset()
    registry = ServiceRegistry()
    attempts = {}

    def invoke(task_name, service_name, parameters):
        attempts[task_name] = attempts.get(task_name, 0) + 1
        task = encoding.tasks[task_name]
        context = InvocationContext(
            task_name=task_name, duration=task.duration, metadata=task.metadata, attempt=attempts[task_name]
        )
        outcome = registry.resolve(service_name).invoke(list(parameters), context)
        if outcome.failed:
            raise RuntimeError(outcome.error or "invocation failed")
        return outcome.value

    externals = default_registry()
    register_workflow_externals(externals, invoke)
    engine = engine_class(externals=externals, max_steps=max_steps, **options)
    start = perf_counter()
    report = engine.reduce(solution)
    seconds = perf_counter() - start
    assert report.inert
    return report, solution, seconds
