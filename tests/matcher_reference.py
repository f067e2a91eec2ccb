"""The interpreted matcher, kept as the oracle of the generated search.

This is the tree-walking matcher ``repro.hocl`` ran before its rules wrote
their left-hand sides out as one flat function each
(:func:`repro.hocl.matching.compiled_search`): per candidate a generator cascade
through per-call ``recurse`` closures, a ``dict`` copy per bound variable, a
``used + [entry]`` list per step and every ω copied eagerly — and its
structural pre-check, :func:`quick_reject`, the interpreted form of what
``Pattern.reject`` writes into the search.  It shares nothing with the
generator but the pattern objects it reads (``elements``, ``rest``, ``kind``,
``index_key``), so ``tests/test_matcher_oracle.py`` can hold the generated
search to it — same matches, same order, same memory refutations — and
``BruteForceEngine`` (``tests/reduction_reference.py``) stays independent of
the code under test.  A pattern class of the caller's own is the exception:
it is matched through its own ``match`` and pre-checked by its own ``reject``
(:func:`compiled_reject`).
"""

import operator

from repro.hocl import (
    Literal,
    Match,
    Omega,
    PatternError,
    Ref,
    Rule,
    RulePattern,
    SolutionPattern,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    Var,
    from_atom,
)
from repro.hocl.matching import _FACTORIES, _load
from repro.hocl.patterns import Source


_ORDERS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def holds(condition, env):
    """Whether the :class:`~repro.hocl.rules.Compare` ``condition`` holds
    under ``env`` (a mapping, of which it reads only the names it compares)
    — the interpreted form of what ``Compare.emit`` writes into the search."""
    if condition is None:
        return True
    sides = []
    for side in (condition.left, condition.right):
        if isinstance(side, Ref):
            if side.name not in env:
                return False
            side = env[side.name]
        sides.append(side)
    left, right = sides
    if condition.op in ("==", "!="):
        return (left == right) == (condition.op == "==")
    try:
        return bool(_ORDERS[condition.op](from_atom(left), from_atom(right)))
    except TypeError:
        return False


def quick_reject(pattern, atom):
    """Whether ``pattern`` provably cannot match ``atom`` under any bindings."""
    if type(pattern) is Var:
        return pattern.kinds is not None and atom.kind not in pattern.kinds
    if type(pattern) in (Literal, SymbolPattern):
        return atom is not pattern.atom and atom != pattern.atom  # symbols are interned
    if type(pattern) is TuplePattern:
        if not isinstance(atom, TupleAtom):
            return True
        elements, own = atom.elements, pattern.elements
        if (len(elements) != len(own)) if pattern.rest is None else (len(elements) < len(own)):
            return True
        return any(quick_reject(element, item) for element, item in zip(own, elements))
    if type(pattern) is SolutionPattern:
        if not isinstance(atom, Subsolution):
            return True
        solution, own = atom.solution, pattern.elements
        if (len(solution) != len(own)) if pattern.rest is None else (len(solution) < len(own)):
            return True
        for element in own:
            entries = solution.live_entries(element.index_key())
            # a single candidate in the bucket must itself survive the check
            if not entries or len(entries) == 1 and quick_reject(element, entries[0].atom):
                return True
        return False
    if type(pattern) is RulePattern:
        return atom.kind != "rule" or pattern.name is not None and atom.name != pattern.name
    return compiled_reject(pattern)(atom)


def compiled_reject(pattern):
    """The pre-check the generated search runs for ``pattern`` (what its
    ``reject`` writes), as a function of one atom."""
    out = Source(2)
    test = pattern.reject(out, "atom")
    constants = ", ".join(f"c{index}" for index in range(len(out.constants)))
    text = f"def factory({constants}):\n    def reject(atom):\n        return bool({test})\n    return reject\n"
    return (_FACTORIES.get(text) or _load(text, "<reject>"))(*out.constants)


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
    for extended, _sites in match_sites(pattern, atom, bindings):
        yield extended


def match_sites(pattern, atom, bindings):
    """Yield ``(extension, sites)`` for every extension of ``bindings`` under
    which ``atom`` matches: ``sites`` is where the match bound below ``atom`` —
    per solution pattern, before those nested in it, the solution it matched
    and the entry each of its elements took."""
    if isinstance(pattern, Var):
        if pattern.kind is not None:
            if pattern.kind == "number":
                if atom.kind not in ("int", "float"):
                    return
            elif atom.kind != pattern.kind:
                return
        extended = _bind(bindings, pattern.name, atom)
        if extended is not None:
            yield extended, ()
    elif isinstance(pattern, Literal):
        if atom == pattern.atom:
            yield bindings, ()
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
            yield bindings, ()
            return
        extended = _bind(bindings, pattern.bind_as, atom)
        if extended is not None:
            yield extended, ()
    elif isinstance(pattern, Omega):
        raise PatternError("Omega patterns capture the remainder of a solution")
    else:  # a pattern class of the caller's own
        for extended in pattern.match(atom, bindings):
            yield extended, ()


def _match_tuple(pattern, atom, bindings):
    if not isinstance(atom, TupleAtom):
        return
    if pattern.rest is None:
        if len(atom.elements) != len(pattern.elements):
            return
    elif len(atom.elements) < len(pattern.elements):
        return

    def recurse(index, env, sites):
        if index == len(pattern.elements):
            if pattern.rest is None:
                yield env, sites
            else:
                extended = _bind(env, pattern.rest.name, list(atom.elements[index:]))
                if extended is not None:
                    yield extended, sites
            return
        for extended, below in match_sites(pattern.elements[index], atom.elements[index], env):
            yield from recurse(index + 1, extended, sites + below)

    yield from recurse(0, bindings, ())


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

    def recurse(index, used, env, sites):
        if index == len(pattern.elements):
            if pattern.rest is None:
                yield env, (solution, *used, *sites)
            else:
                remainder = [entry.atom for entry in solution.live_entries() if entry not in used]
                extended = _bind(env, pattern.rest.name, remainder)
                if extended is not None:
                    yield extended, (solution, *used, *sites)
            return
        element = pattern.elements[index]
        for entry in candidate_lists[index]:
            if entry in used:
                continue
            if quick_reject(element, entry.atom):
                continue
            for extended, below in match_sites(element, entry.atom, env):
                yield from recurse(index + 1, used + [entry], extended, sites + below)

    yield from recurse(0, [], bindings, ())


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

    def recurse(index, used, env, sites):
        if index == last:
            if not holds(condition, env):
                return False
            consumed = [entry.atom for entry in used]
            if owner is not None:
                for atom in consumed:
                    if atom is owner:
                        return False
            found.append(Match(env, consumed, (*used, *sites)))
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
            if quick_reject(pattern, entry.atom):
                if memory is not None:
                    memory.refute(entry)
                continue
            for extended, below in match_sites(pattern, entry.atom, env):
                if recurse(index + 1, used + [entry], extended, sites + below):
                    return True
        return False

    recurse(0, [], dict(initial_bindings) if initial_bindings else {}, ())
    return found


def first_match(rule, solution):
    """The reference of :func:`repro.hocl.matching.first_match`."""
    found = search(
        rule.patterns, solution, rule.condition, rule.given, first=True, keys=rule.pattern_index_keys, owner=rule
    )
    return found[0] if found else None
