"""The references the engine is held to (a helper module, not a test file).

* :class:`NaiveEngine` — the naive walk: every nested solution visited, every
  rule of every level tried through its public ``reaction``, no inertness
  stamp read or written, no index refutation.  Against it the engine's
  reaction history is identical in order, with fewer searches.
* :func:`walk_the_relation` — the engine's path, read off the solution one
  reaction at a time, held to HOCL's one-step relation
  (``hocl_semantics.py``) and to what a full reduce reaches.
* :func:`watch_reactions` — every reaction an engine runs handed to a check.

The simulated timeline, pinned by the 51 digest cells of
``tests/fixtures/sim_timeline_digests.json``, depends on nothing else.
"""

from collections import Counter
from time import perf_counter

from hocl_semantics import Chemistry, canon, norm, ordered
from repro.hocl import ReductionEngine, ReductionReport, default_registry
from repro.hocl.deltas import Reaction
from repro.hocl.engine import ReactionRecord
from repro.hoclflow import encode_workflow
from repro.hoclflow.generic_rules import register_workflow_externals
from repro.services import InvocationContext, ServiceRegistry


class NaiveEngine:
    """Re-reduce everything: the trace the incremental engine must reproduce."""

    def __init__(self, externals=None, max_steps=100_000):
        self.externals = externals if externals is not None else default_registry()
        self.max_steps = max_steps

    def reduce(self, solution):
        report = ReductionReport()
        self._reduce_level(solution, 0, report)
        return report

    def _reduce_level(self, solution, depth, report):
        while report.reactions < self.max_steps:
            for nested in solution.nested_solutions():
                self._reduce_level(nested, depth + 1, report)
            if report.reactions >= self.max_steps:
                break
            for rule in solution.rules_by_priority():
                report.match_attempts += 1
                fired = rule.reaction.run(solution, rule, self.externals, report.effects, None)
                if fired is not None:
                    if rule.one_shot:
                        solution.remove_identical(rule)
                    report.reactions += 1
                    report.rule_fires[rule.name] = report.rule_fires.get(rule.name, 0) + 1
                    report.history.append(ReactionRecord(rule.name, depth, len(rule.patterns), fired[0]))
                    break
            else:
                return
        report.inert = False


def walk_the_relation(solution, externals=None, chemistry=None, bound=None):
    """Reduce ``solution`` one reaction at a time (at most ``bound``) and hold
    every step to the relation: the solution after it is one of
    :meth:`Chemistry.steps` of the solution before, and a step at the top level
    is one :meth:`Chemistry.first_step` names.  Returns the rules fired,
    counted."""
    chemistry = chemistry or Chemistry(externals)
    engine, fired = ReductionEngine(externals=externals, max_steps=1), Counter()
    while bound is None or sum(fired.values()) < bound:
        before = ordered(solution)
        step = engine.reduce(solution)
        if not step.reactions:
            assert step.inert and chemistry.inert(norm(before))
            break
        after = canon(solution)
        assert after in chemistry.steps(norm(before)), step.history
        if step.history[0].depth == 0:  # the engine reacts at a level once all below it is inert
            assert after in (chemistry.first_step(before) or ()), step.history
        fired.update(step.rule_fires)
    return fired


def assert_on_the_relation(build, externals=None):
    """The engine's path on what ``build()`` returns is a path of the relation,
    and it reaches what one full reduce of another copy reaches."""
    stepped, whole = build(), build()
    fired = walk_the_relation(stepped, externals)
    report = ReductionEngine(externals=externals).reduce(whole)
    assert report.inert and dict(fired) == report.rule_fires
    assert stepped.content_hash() == whole.content_hash()
    return whole


def watch_reactions(monkeypatch, watcher):
    """Hand every reaction any engine runs to ``watcher(run, solution, owner,
    externals, effects, clock)``, ``run`` the reaction itself: it answers for
    the reaction."""
    slot = Reaction.__dict__["run"]

    def get(reaction):
        try:
            run = slot.__get__(reaction, Reaction)
        except AttributeError:  # not written yet: its first run writes it
            run = reaction._first
        return lambda *args: watcher(run, *args)

    monkeypatch.setattr(Reaction, "run", property(get, slot.__set__))


def trace(report):
    """The reaction history as comparable tuples."""
    return [(r.rule, r.depth, r.consumed, r.produced) for r in report.history]


def workflow_externals(encoding, once=False):
    """The externals a centralised reduction of ``encoding`` calls, services
    resolved as the centralised executor resolves them; ``once``: each distinct
    call invoked once, so that the relation may ask for a product the engine
    asks for too."""
    registry, attempts, outcomes = ServiceRegistry(), Counter(), {}

    def invoke(task_name, service_name, parameters):
        key = (task_name, service_name, repr(parameters)) if once else None
        if key not in outcomes:
            attempts[task_name] += 1
            task = encoding.tasks[task_name]
            context = InvocationContext(
                task_name=task_name, duration=task.duration, metadata=task.metadata, attempt=attempts[task_name]
            )
            outcome = registry.resolve(service_name).invoke(list(parameters), context)
            if not once:
                return _value(outcome)
            outcomes[key] = outcome
        return _value(outcomes[key])

    return register_workflow_externals(default_registry(), invoke)


def _value(outcome):
    if outcome.failed:
        raise RuntimeError(outcome.error or "invocation failed")
    return outcome.value


def reduce_workflow(workflow, engine_class=ReductionEngine, max_steps=5_000_000):
    """One centralised reduction of ``workflow``'s encoding by ``engine_class``;
    returns ``(report, solution, seconds)``, the seconds those of ``reduce`` alone."""
    encoding = encode_workflow(workflow)
    solution = encoding.to_multiset()
    engine = engine_class(externals=workflow_externals(encoding), max_steps=max_steps)
    start = perf_counter()
    report = engine.reduce(solution)
    seconds = perf_counter() - start
    assert report.inert
    return report, solution, seconds
