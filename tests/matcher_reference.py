"""The interpreted matcher, kept as the oracle of the generated search.

This is the tree-walking matcher ``repro.hocl`` ran before its rules wrote
their left-hand sides out as one flat function each
(:func:`repro.hocl.matching.compiled_search`): per candidate a generator cascade
through per-call ``recurse`` closures, a ``dict`` copy per bound variable, a
``used + [entry]`` list per step and every ω copied eagerly.  It shares nothing
with the generator but the pattern objects it reads (``elements``, ``rest``,
``kind``, ``index_key``, ``quick_reject``), so ``tests/test_matcher_oracle.py``
can hold the generated search to it — same matches, same order, same memory
refutations — and ``BruteForceEngine`` (``tests/test_reduction_parity.py``)
stays independent of the code under test.
"""

from repro.hocl import (
    Literal,
    Match,
    Omega,
    PatternError,
    Rule,
    RulePattern,
    SolutionPattern,
    Subsolution,
    Symbol,
    TupleAtom,
    TuplePattern,
    Var,
)
from repro.hocl.rules import BindingView


def _bind(bindings, name, value):
    """Extend ``bindings`` with ``name=value`` if consistent, else ``None``."""
    if name in bindings:
        existing = bindings[name]
        if isinstance(existing, list) or isinstance(value, list):
            if not isinstance(existing, list) or not isinstance(value, list):
                return None
            if len(existing) != len(value) or any(a != b for a, b in zip(existing, value)):
                return None
        elif existing != value:
            return None
        return bindings
    extended = dict(bindings)
    extended[name] = value
    return extended


def match(pattern, atom, bindings):
    """Yield every extension of ``bindings`` (a dict) under which ``atom`` matches."""
    if isinstance(pattern, Var):
        if pattern.kind is not None:
            if pattern.kind == "number":
                if atom.kind not in ("int", "float"):
                    return
            elif atom.kind != pattern.kind:
                return
        extended = _bind(bindings, pattern.name, atom)
        if extended is not None:
            yield extended
    elif isinstance(pattern, Literal):
        if atom == pattern.atom:
            yield bindings
    elif isinstance(pattern, TuplePattern):
        yield from _match_tuple(pattern, atom, bindings)
    elif isinstance(pattern, SolutionPattern):
        yield from _match_solution(pattern, atom, bindings)
    elif isinstance(pattern, RulePattern):
        if not isinstance(atom, Rule):
            return
        if pattern.name is not None and atom.name != pattern.name:
            return
        if pattern.bind_as is None:
            yield bindings
            return
        extended = _bind(bindings, pattern.bind_as, atom)
        if extended is not None:
            yield extended
    elif isinstance(pattern, Omega):
        raise PatternError("Omega patterns capture the remainder of a solution")
    else:  # a pattern class of the caller's own
        yield from pattern.match(atom, bindings)


def _match_tuple(pattern, atom, bindings):
    if not isinstance(atom, TupleAtom):
        return
    if pattern.rest is None:
        if len(atom.elements) != len(pattern.elements):
            return
    elif len(atom.elements) < len(pattern.elements):
        return

    def recurse(index, env):
        if index == len(pattern.elements):
            if pattern.rest is None:
                yield env
            else:
                extended = _bind(env, pattern.rest.name, list(atom.elements[index:]))
                if extended is not None:
                    yield extended
            return
        for extended in match(pattern.elements[index], atom.elements[index], env):
            yield from recurse(index + 1, extended)

    yield from recurse(0, bindings)


def _match_solution(pattern, atom, bindings):
    if not isinstance(atom, Subsolution):
        return
    solution = atom.solution
    size = len(solution)
    if pattern.rest is None and size != len(pattern.elements):
        return
    if size < len(pattern.elements):
        return
    candidate_lists = []
    for element in pattern.elements:
        entries = solution.live_entries(element.index_key())
        if not entries:
            return
        candidate_lists.append(entries)

    def recurse(index, used, env):
        if index == len(pattern.elements):
            if pattern.rest is None:
                yield env
            else:
                remainder = [entry.atom for entry in solution.live_entries() if entry not in used]
                extended = _bind(env, pattern.rest.name, remainder)
                if extended is not None:
                    yield extended
            return
        element = pattern.elements[index]
        for entry in candidate_lists[index]:
            if entry in used:
                continue
            if element.quick_reject(entry.atom):
                continue
            for extended in match(element, entry.atom, env):
                yield from recurse(index + 1, used + [entry], extended)

    yield from recurse(0, [], bindings)


def _index_key_with(pattern, bindings):
    """``index_key``, sharpened by a head variable already bound to a symbol."""
    if isinstance(pattern, TuplePattern) and pattern.elements:
        first = pattern.elements[0]
        if isinstance(first, Var):
            bound = bindings.get(first.name)
            if isinstance(bound, Symbol):
                return ("tuple", bound.name)
    return pattern.index_key()


def search(
    patterns,
    solution,
    condition=None,
    initial_bindings=None,
    exclude=None,
    pinned=None,
    pinned_entries=(),
    first=False,
    keys=None,
    owner=None,
):
    """Every match in enumeration order, or — ``first`` — only the first one.

    ``keys`` given means the caller (the engine, for a rule) already checked
    that every static bucket holds a candidate; bare patterns check here.
    """
    found = []
    if keys is None:
        keys = [pattern.index_key() for pattern in patterns]
        if not (solution.has_all_candidates(keys) and (None not in keys or len(solution))):
            return found
    last = len(patterns)
    fetched = {}

    def recurse(index, used, env):
        if index == last:
            if condition is not None and not condition(BindingView(env)):
                return False
            consumed = [entry.atom for entry in used]
            if owner is not None:
                for atom in consumed:
                    if atom is owner:
                        return False
            found.append(Match(env, consumed))
            return first
        pattern = patterns[index]
        memory = None
        if index == pinned:
            entries = pinned_entries
        else:
            key = keys[index]
            if env and (key is None or key[0] == "kind"):
                key = _index_key_with(pattern, env)
            cached = fetched.get((index, key))
            if cached is None:
                memory = solution.memory_for(pattern, key)
                entries = solution.live_entries(key) if memory is None else memory.snapshot()
                fetched[(index, key)] = (entries, memory)
            else:
                entries, memory = cached
        for entry in entries:
            if entry in used:
                continue
            if exclude is not None and exclude(entry.atom):
                continue
            if pattern.quick_reject(entry.atom):
                if memory is not None:
                    memory.refute(entry)
                continue
            for extended in match(pattern, entry.atom, env):
                if recurse(index + 1, used + [entry], extended):
                    return True
        return False

    recurse(0, [], dict(initial_bindings) if initial_bindings else {})
    return found


def first_match(rule, solution, exclude=None, pinned=None, pinned_entries=()):
    """The reference of :func:`repro.hocl.matching.first_match`."""
    found = search(
        rule.patterns, solution, rule.guarded_condition, None, exclude, pinned, pinned_entries, True,
        keys=rule.pattern_index_keys, owner=rule,
    )  # fmt: skip
    return found[0] if found else None
