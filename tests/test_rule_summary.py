"""A rule's summary held to what the engine does when it fires the rule.

:attr:`Rule.summary <repro.hocl.rules.Rule.summary>` is the one model of a
rule the analyzer reads: the names a rule binds and reads, the index keys it
matches and those it can add, per depth.  It is read off the rule's two
sides and its delta, never by running it — so here rules are fired and two
things are checked of each firing:

* every atom that joined a level at depth *d* — one that did not exist before
  the firing, kept or moved — has its index keys in the summary's adds at
  *d*, or the summary says the rule can add any atom at *d*;
* every name the fire, the condition and the effect read is among the
  summary's reads (of a rule's reaction: every name its text reads).

The rules are the matcher oracle's random programs given random products
(restating their patterns, so that deltas keep and patch, or building new
atoms), their condition read on every match the one-step relation
(``hocl_semantics.py``) finds and each fired by its reaction; and every rule
of the catalog, adaptive diamond included, checked at every reaction of a run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from hocl_semantics import Chemistry, canon
from reduction_reference import watch_reactions
from test_matcher_oracle import _ATOMS, _CONDITIONS, _EXAMPLES, _FULL, _SYMBOLS, _programs
from repro import GinFlow, adaptive_diamond_workflow
from repro.hocl import (
    Call,
    ListTemplate,
    Literal,
    Multiset,
    Ref,
    Rule,
    RulePattern,
    SolutionTemplate,
    Splice,
    Subsolution,
    TupleAtom,
    TuplePattern,
    TupleTemplate,
    Var,
    default_registry,
)
from repro.hocl.atoms import ListAtom
from repro.hocl.deltas import Fire, Reaction
from repro.hocl.multiset import atom_index_keys
from repro.hocl.patterns import solution_patterns
from repro.scenarios import available_scenarios, build_scenario


class _Reads(dict):
    """Bindings that note every name read of them."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)

    def __contains__(self, name):
        self.read.add(name)
        return super().__contains__(name)


def _levels(solution, depth=0):
    """Every solution reachable from ``solution``, with its depth."""
    yield solution, depth
    for atom in solution:
        yield from _held(atom, depth)


def _held(atom, depth):
    if isinstance(atom, Subsolution):
        yield from _levels(atom.solution, depth + 1)
    elif isinstance(atom, (TupleAtom, ListAtom)):
        for inner in atom.elements if isinstance(atom, TupleAtom) else atom.items:
            yield from _held(inner, depth)


def _everything(solution):
    """Every atom reachable from ``solution``: members, fields, items."""
    found = []
    stack = list(solution)
    while stack:
        atom = stack.pop()
        found.append(atom)
        if isinstance(atom, Subsolution):
            stack += list(atom.solution)
        elif isinstance(atom, TupleAtom):
            stack += atom.elements
        elif isinstance(atom, ListAtom):
            stack += atom.items
    return found


def _within_adds(rule, solution, ids, before):
    """Every atom that joined a level of ``solution`` — not one of ``ids``, nor
    equal to one of ``before`` — is among what ``rule.summary`` says it adds there."""
    for level, at in _levels(solution):
        added, anything = rule.summary.added(at, rule.given)
        for atom in level:
            if anything or id(atom) in ids or any(atom == old for old in before):
                continue
            assert set(atom_index_keys(atom)) <= added, (rule.name, at, atom)


#: a rule body (ids of its patterns and products, its effect's names) -> (those
#: sides, kept alive so that no id is reused, and the names its reaction's fire reads)
_FIRE_READS = {}


def _fire_reads(rule):
    """The names the fire of ``rule``'s reaction reads: each one its text
    fetches into a local, as it is written."""
    body = id(rule.patterns), id(rule.products), tuple(rule.effect_names)
    if body not in _FIRE_READS:
        read, fetch = set(), Fire.fetch

        def fetching(self, name):
            read.add(name)
            return fetch(self, name)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Fire, "fetch", fetching)
            Reaction._write(rule)
        _FIRE_READS[body] = (rule.patterns, rule.products), read
    return _FIRE_READS[body][1]


def _react_and_check(run, solution, owner, externals, effects, clock):
    """Run ``owner``'s reaction (``run``) on ``solution``, and hold what it
    fired, if anything, to ``owner.summary``; return what it returned."""
    summary = owner.summary
    kept = _everything(solution)  # the objects, alive: an id is not reused meanwhile
    ids = {id(atom) for atom in kept}
    before = [atom.copy() for atom in kept]  # and their values, should they move
    fired = run(solution, owner, externals, effects, clock)
    if fired is None:
        return None
    assert _fire_reads(owner) <= summary.reads["ref"] | summary.reads["splice"] | summary.reads["effect"], owner.name
    _within_adds(owner, solution, ids, before)
    return fired


# ------------------------------------------------------------ random programs
def _restated(draw, pattern, scalars, omegas, bags):
    """A template restating ``pattern`` (its matched atom kept, maybe edited
    one level down), or ``None`` when it restates nothing."""
    if isinstance(pattern, Var):
        return Ref(pattern.name) if pattern.name in scalars else None
    if isinstance(pattern, Literal):
        return pattern.atom
    if isinstance(pattern, RulePattern):
        return Ref(pattern.bind_as) if pattern.bind_as in scalars else None
    elements = [_restated(draw, element, scalars, omegas, bags) for element in pattern.elements]
    if isinstance(pattern, TuplePattern):
        if None in elements or (pattern.rest is not None and pattern.rest.name not in omegas):
            return None
        return TupleTemplate(*elements, *([Splice(pattern.rest.name)] if pattern.rest else []))
    kept = [element for element in elements if element is not None and draw(st.booleans())]
    kept += draw(st.lists(_new(scalars, omegas, bags), max_size=2))
    if pattern.rest is not None:
        kept.append(Splice(pattern.rest.name))
    return SolutionTemplate(*draw(st.permutations(kept)))


def _splices(template, names):
    """Whether ``template`` splices one of ``names``."""
    if isinstance(template, Splice):
        return template.name in names
    return any(_splices(inner, names) for inner in getattr(template, "arguments", getattr(template, "elements", ())))


def _new(scalars, omegas, bags):
    """Templates of atoms a firing makes: literals, moved or given atoms,
    built tuples, solutions and lists, an external's result — handed no
    solution's ω (``bags``): the relation cannot know the order it comes in."""
    leaves = [_ATOMS, st.sampled_from([Ref("g"), Splice("gs")])]
    if scalars:
        leaves.append(st.sampled_from(sorted(scalars)).map(Ref))
    if omegas:
        leaves.append(st.sampled_from(sorted(omegas)).map(Splice))
    return st.recursive(
        st.one_of(*leaves),
        lambda children: st.one_of(
            st.builds(lambda head, rest: TupleTemplate(head, *rest), st.one_of(_SYMBOLS, _ATOMS, st.just(Ref("g"))), st.lists(children, max_size=2)),
            st.lists(children, max_size=3).map(lambda items: SolutionTemplate(*items)),
            st.lists(children, max_size=2).map(lambda items: ListTemplate(*items)),
            st.lists(children, max_size=2).map(lambda items: Call("echo", *items)).filter(lambda call: not _splices(call, bags)),
        ),
        max_leaves=4,
    )


_EFFECTS = [None, lambda: None, lambda x: None, lambda x, y, w: None, lambda g, gs: None]


@st.composite
def _rules(draw):
    """A random program of the matcher oracle as a rule, and the level it matches in."""
    patterns, atoms = draw(_programs())
    omegas = {name for pattern in patterns for name in pattern.omega_names()}
    scalars = {name for pattern in patterns for name in pattern.bound_names()} - omegas
    bags = {found.rest.name for pattern in patterns for found in solution_patterns(pattern) if found.rest is not None}
    products = []
    for pattern in patterns:
        restated = _restated(draw, pattern, scalars, omegas, bags) if draw(st.booleans()) else None
        if restated is not None:
            products.append(restated)
    products += draw(st.lists(_new(scalars, omegas, bags), max_size=2))
    condition = draw(_CONDITIONS)
    if condition is not None and omegas.intersection(condition.names):
        condition = None
    effect = draw(st.sampled_from(_EFFECTS))
    if effect is not None and not set(effect.__code__.co_varnames) <= scalars | omegas | {"g", "gs"}:
        effect = None
    given = {"g": draw(_ATOMS), "gs": draw(st.lists(_ATOMS, max_size=2))}
    rule = Rule("r", patterns, draw(st.permutations(products)), condition=condition, effect=effect,
                keep_matched=draw(st.booleans()), given=given)  # fmt: skip
    return rule, Multiset(atoms)


def _echo(args, _bindings):
    return args


class TestRandomRules:
    @given(program=_rules())
    @settings(max_examples=_EXAMPLES, deadline=None, derandomize=not _FULL)
    def test_every_firing_stays_within_the_summary(self, program):
        rule, level = program
        externals = default_registry()
        externals.register("echo", _echo)
        chemistry, atoms = Chemistry(externals), canon(level)[1]
        matches = list(chemistry.matches(rule, atoms))
        for env, _taken in matches:  # every match reads only what the condition names
            condition = _Reads(env)
            chemistry.holds(rule.condition, condition)
            assert condition.read <= rule.summary.reads["condition"]
        # ... and, where it fires, by its reaction
        fired = _react_and_check(rule.reaction.run, level.copy(), rule, externals, [], None)
        if all(chemistry.inert(atom) for atom in atoms):  # else the engine reduces below first
            assert (fired is None) == (not matches)


# ---------------------------------------------------------------- the catalog
@pytest.fixture
def checked_firings(monkeypatch):
    """Every reaction of every engine held to its rule's summary; the rules fired."""
    seen = set()

    def checked(run, solution, owner, *rest):
        fired = _react_and_check(run, solution, owner, *rest)
        if fired is not None:
            seen.add(owner.name.split(":")[0])
        return fired

    watch_reactions(monkeypatch, checked)
    return seen


@pytest.mark.parametrize("mode", ["centralized", "simulated"])
def test_every_catalog_rule_stays_within_its_summary(checked_firings, mode):
    for name in available_scenarios():
        assert GinFlow().run(build_scenario(f"{name}:size=10,seed=1"), mode=mode, nodes=5).succeeded
    assert checked_firings >= {"gw_setup", "gw_call", "gw_pass"}


@pytest.mark.parametrize("mode", ["centralized", "simulated"])
def test_the_adaptation_rules_stay_within_their_summaries(checked_firings, mode):
    report = GinFlow().run(adaptive_diamond_workflow(3, 3, "full", "simple", duration=0.01), mode=mode, nodes=5)
    assert report.succeeded
    assert checked_firings >= {"gw_setup", "gw_call", "gw_pass", "trigger_adapt", "add_dst", "mv_src", "activate"}
