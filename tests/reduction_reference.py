"""The reference reductions the engine is held to (a helper module, not a test file).

``repro.hocl.engine.ReductionEngine`` is one incremental loop that fires every
rule through the delta derived from its two sides.  What it replaced lives on
here, each oracle a subclass that swaps out one part — the walk, the search or
the rule application:

* :class:`NaiveEngine` — the naive walk: every nested solution visited, every
  rule searched, no inertness stamp read or written, no index refutation;
* :class:`BruteForceEngine` — the naive walk over the interpreted matcher of
  ``matcher_reference.py``, scanning every atom of the level for every pattern;
* :class:`RebuildEngine` — every rule fires by its rebuild form: everything
  matched leaves the level and the products are expanded;
* :class:`RepositioningDelta` (:func:`repositioned`) — the delta application
  that kept anchors in place replaced: matched atoms leave and the kept ones
  re-enter at the end.

The parity contract, stated once (:func:`assert_parity`): against an oracle
that searches like it, the engine reaches the same final solution
(``content_hash``) and fires the same rules (``rule_fires``) after the same
searches (``match_attempts``).  Against the naive walk, which
searches more by design, the reaction history is identical in order.  The
simulated timeline, pinned by the 51 digest cells of
``tests/fixtures/sim_timeline_digests.json``, depends on nothing else.
"""

from time import perf_counter

from repro.hocl import Match, ReductionEngine, ReductionError, Rule, default_registry
from repro.hocl.deltas import RewriteDelta
from repro.hocl.engine import ReactionRecord
from repro.hocl.templates import expand_templates
from repro.hoclflow import encode_workflow
from repro.hoclflow.generic_rules import register_workflow_externals
from repro.services import InvocationContext, ServiceRegistry

import matcher_reference


class NaiveEngine(ReductionEngine):
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
        condition = rule.guarded_condition

        def search(index, used, env, sites):
            if index == len(rule.patterns):
                if condition is None or condition(matcher_reference.BindingView(env)):
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


class RebuildEngine(ReductionEngine):
    """Every rule fires by its rebuild form (products expanded, nothing patched)."""

    def _apply(self, rule, match, solution, depth, report):
        if self.observer is not None:  # what it reads after the reaction is read now
            for name in match.bindings:
                match.bindings.atom(name)
        emitted = list(rule.effect(match.bindings) or ()) if rule.effect is not None else ()
        try:
            products = list(match.consumed) if rule.keep_matched else []
            products += expand_templates(rule.products, match.bindings, self.externals)
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

    def apply(self, match, solution, externals):
        for op in self.ops:
            op.apply(match.sites, match.bindings, externals)
        for atom in match.consumed:
            solution.remove_identical(atom)
        for index, atom in enumerate(match.consumed):
            if index not in self.consume:
                solution.add(atom)
        added = expand_templates(self.produce, match.bindings, externals)
        for atom in added:
            solution.add(atom)
        return [match.consumed[index] for index in self.consume], added


class RepositionedRule(Rule):
    """A rule firing through a :class:`RepositioningDelta` of the delta it derives."""

    __slots__ = ("_repositioned",)

    @property
    def delta(self):
        try:
            return self._repositioned
        except AttributeError:
            derived = super().delta
            self._repositioned = RepositioningDelta(derived.ops, derived.consume, derived.produce)
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
