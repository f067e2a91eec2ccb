"""Multiset-level pattern matching.

A rule's left-hand side is a sequence of patterns that must match *distinct*
atoms of the solution simultaneously, under a single consistent binding
environment, and subject to the rule's reaction condition.  This module
implements that search.

The matcher is one backtracking search per distinct left-hand side
(:func:`compiled_search`), *generated*: the patterns write the Python source of
one flat function (:meth:`~repro.hocl.patterns.Pattern.emit` — nested ``for``
loops over index buckets, variables as locals, the reaction condition
(:meth:`~repro.hocl.rules.Compare.emit`) and the :class:`Match` at the
innermost level), compiled once per distinct text at the first search and
readable as ``compiled_search(patterns, condition).__source__``.  It is
asked two ways: :func:`first_match` returns the first admissible match of a
rule — all the reduction engine ever consumes — and :func:`find_matches`
enumerates every match of a pattern sequence.  It draws its candidates from
the multiset's head-symbol index
(:meth:`~repro.hocl.multiset.Multiset.live_entries`) instead of scanning every
atom for every pattern: ``RES : <...>`` only ever sees the tuples whose head is
``RES``.  Because every bucket preserves insertion order and is a guaranteed
superset of the atoms its patterns can match, the sequence of matches produced
— and hence the engine's reduction trace — is identical to a naive full scan.

Distinctness is tracked per *occurrence* (the index hands out one entry per
stored occurrence), so a solution holding the same atom object twice — e.g.
two ``ADAPT`` markers injected by repeated messages — still offers both
occurrences to multi-pattern rules.
"""

from __future__ import annotations

import linecache
from collections.abc import Mapping
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence
from weakref import WeakValueDictionary

from .atoms import Atom, ListAtom, Subsolution, Symbol, TupleAtom, from_atom
from .multiset import _EMPTY, Multiset
from .errors import ExternalFunctionError, PatternError, ReductionError
from .patterns import UNBOUND, Bindings, BindingView, Omega, Pattern, Source, _Rest, value_of
from .templates import coerce

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rules import Compare, Rule

__all__ = ["Match", "compiled_search", "first_match", "find_matches", "find_first_match", "count_matches"]


class Match:
    """The result of matching a rule's left-hand side against a solution.

    Attributes
    ----------
    bindings:
        Variable environment produced by the match (a plain mapping is wrapped).
    consumed:
        The exact atom objects (by identity) matched by the left-hand side.
    sites:
        Where the search bound, as it held it: the entry each top-level
        pattern took, then, per solution pattern in the order
        :func:`~repro.hocl.patterns.solution_patterns` walks them, the
        solution it matched and the entry each of its elements took.  A rule
        fires by these (:class:`~repro.hocl.deltas.RewriteDelta`).
    """

    __slots__ = ("bindings", "consumed", "sites")

    def __init__(
        self, bindings: Bindings | Mapping[str, Any], consumed: list[Atom] | None = None, sites: tuple[Any, ...] = ()
    ):
        self.bindings = bindings if isinstance(bindings, BindingView) else BindingView(bindings)
        self.consumed = [] if consumed is None else consumed
        self.sites = sites


#: what every generated text (a search, a fire) may name without being handed it
_NAMES = {
    "U": UNBOUND, "NOTHING": {}, "EMPTY": _EMPTY, "Symbol": Symbol, "TupleAtom": TupleAtom,
    "Subsolution": Subsolution, "ListAtom": ListAtom, "Rest": _Rest, "View": BindingView, "Match": Match,
    "coerce": coerce, "PatternError": PatternError, "ExternalFunctionError": ExternalFunctionError,
    "ReductionError": ReductionError, "value_of": value_of, "from_atom": from_atom,
}  # fmt: skip
_SIGNATURE = "solution, owner=None, initial_bindings=None, pinned=None, pinned_entries=(), first=False"
#: source text -> the factory it defines: ``factory(c0, c1, ...)`` is the search
#: of one left-hand side, or the fire of one delta
_FACTORIES: dict[str, Callable[..., Any]] = {}
_FACTORY_LIMIT = 512  #: shape churn (random programs) cannot leak
_serial = count(1)
#: left-hand side (its pattern objects and condition) -> its search, while a rule holds it
_COMPILED: "WeakValueDictionary[tuple[Any, ...], Search]" = WeakValueDictionary()


class Search:
    """The search of one left-hand side and its reaction condition:
    ``search(solution, owner, initial_bindings, pinned, pinned_entries,
    first)`` is every match in enumeration order, or — ``first`` — only the
    first one; a match that would consume ``owner`` is not one.

    ``run`` is the generated function (what the engine calls) and ``__source__``
    its text, both written at the first search: a left-hand side nothing ever
    searches costs nothing.
    """

    __slots__ = ("patterns", "condition", "run", "__source__", "__weakref__")

    def __init__(self, patterns: tuple[Pattern, ...], condition: "Compare | None"):
        self.patterns = patterns
        self.condition = condition

    def __call__(self, *args: Any, **kwargs: Any) -> "list[Match]":
        return self.run(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        # only an unset slot gets here: nothing searched yet
        if name == "run":
            return self._first
        if name == "__source__":
            self._generate(None)
            return self.__source__
        raise AttributeError(name)

    def _first(self, solution: Multiset, owner: Any = None, *rest: Any, **more: Any) -> "list[Match]":
        self._generate(getattr(owner, "name", None))
        return self.run(solution, owner, *rest, **more)

    def _generate(self, rule: str | None) -> None:
        text, constants = _write(self.patterns, self.condition)
        factory = _FACTORIES.get(text) or _load(text, f"<hocl-lhs {rule or 'patterns'} #{next(_serial)}>")
        self.__source__, self.run = text, factory(*constants)


def compiled_search(patterns: Sequence[Pattern], condition: "Compare | None" = None) -> Search:
    """The search of the left-hand side ``patterns`` under ``condition``, generated at its first use.

    One per distinct left-hand side per process: rules built on the same
    pattern and condition objects (the per-task ``gw_call`` rules) share it,
    and so do agents and threads — it holds no state, every call runs on its
    own locals.
    """
    key = (*patterns, condition)
    search = _COMPILED.get(key)
    if search is None:
        for pattern in patterns:
            _refuse(pattern)
        if condition is not None:
            condition.refuse(name for pattern in patterns for name in pattern.omega_names())
        search = _COMPILED[key] = Search(tuple(patterns), condition)
    return search


def _refuse(pattern: Pattern) -> None:
    """Raise, when the left-hand side is built, what no search of it could run."""
    if isinstance(pattern, Omega):
        raise PatternError("an Omega captures the remainder of a solution: it cannot match a single atom")
    if type(pattern).emit is Pattern.emit and type(pattern).match is Pattern.match:
        raise NotImplementedError(f"{type(pattern).__name__} defines neither emit() nor match()")
    for element in getattr(pattern, "elements", ()):
        _refuse(element)


def _load(text: str, filename: str) -> Callable[..., Any]:
    """Compile ``text`` — the one place that does — and keep its factory; the
    lines stay readable in a traceback under ``filename``."""
    if len(_FACTORIES) >= _FACTORY_LIMIT:
        for stale in _FACTORIES.values():
            linecache.cache.pop(stale.__code__.co_filename, None)
        _FACTORIES.clear()
    scope = dict(_NAMES)
    exec(compile(text, filename, "exec"), scope)  # noqa: S102 - text a generator of this package wrote
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    factory = _FACTORIES[text] = scope["factory"]
    return factory


def _layout(patterns: Sequence[Pattern]) -> tuple[list[Any], list[int], list[str]]:
    """The index key of each pattern, those that are broad (a kind bucket, or
    none: searched through a memory), and the locals of their memories."""
    keys = [pattern.index_key() for pattern in patterns]
    broad = [index for index, key in enumerate(keys) if key is None or key[0] == "kind"]
    return keys, broad, [f"{stem}{index}" for index in broad for stem in "md"]  # memory and its entries, once a pattern got that far


def _loops(out: Source, patterns: Sequence[Pattern], condition: "Compare | None", pinnable: bool = True) -> tuple[list[str], list[str]]:
    """Write into ``out`` the loops of the search of ``patterns`` under
    ``condition``, up to where a match holds; the locals of the entry and of
    the atom each pattern took.

    One nested ``for`` per pattern, in declaration order, over every candidate
    entry no earlier pattern took, in bucket order.  The candidates are drawn
    when the pattern is reached, so a broad key (a kind bucket, or none) can be
    narrowed by what the patterns before bound: ``gw_pass`` looks up its
    destination tuple instead of scanning every task.  A pattern left with a
    broad key draws from the level's plausible-candidate memory — the same
    entries, in the same order, minus those its pre-check refuted (for good:
    :meth:`~repro.hocl.patterns.Pattern.reject` holds under any bindings) —
    iterated in place: what this search refutes is forgotten when it ends,
    however it ends.  Any other bucket is short, and read live: nothing
    mutates the solution while a search runs.  ``pinnable``: pattern
    ``pinned`` may draw from ``pinned_entries`` instead.
    """
    keys, broad, _opened = _layout(patterns)
    entries: list[str] = []
    atoms: list[str] = []
    if not patterns:
        out.loop("for _ in (None,):")
    for index, (pattern, key) in enumerate(zip(patterns, keys)):
        entry, atom = out.local("e"), out.local("a")
        if index in broad:
            own = out.const(pattern)
            cases = [(f"pinned == {index}", "pinned_entries")] if pinnable else []
            narrowing = pattern.narrowing_variable()
            if narrowing is not None:
                held = out.held(narrowing)
                cases.append((f"isinstance({held}, Symbol)", f"solution._index.get(('tuple', {held}.name), EMPTY)"))
            for case, (test, drawn) in enumerate(cases):
                out.line(f"{'elif' if case else 'if'} {test}: n{index} = {drawn}; q{index} = False")
            indent = "    " if cases else ""
            if cases:
                out.line("else:")
            out.line(f"{indent}if m{index} is None: m{index} = solution.memory_for({own}, {out.const(key)}); d{index} = m{index}.open()")
            out.line(f"{indent}n{index} = d{index}; q{index} = True")
            out.loop(f"for {entry} in n{index}:")
        else:
            pin = f"pinned_entries if pinned == {index} else " if pinnable else ""
            out.loop(f"for {entry} in {pin}{out.bucket('solution', key)}:")
        if entries:  # `_Entry` has no `__eq__`: identity is all there is to test
            out.line(f"if {' or '.join(f'{entry} is {other}' for other in entries)}: continue")
        out.line(f"{atom} = {entry}.atom")
        if index in broad and (rejected := pattern.reject(out, atom)) != "False":
            out.line(f"if q{index} and ({rejected}): r{index}.append({entry}); continue")
        pattern.emit(out, atom)
        entries.append(entry)
        atoms.append(atom)
    if condition is not None:
        condition.emit(out)
    return entries, atoms


def _frame(out: Source, patterns: Sequence[Pattern], function: str, signature: str, before: list[str], after: list[str]) -> tuple[str, list[Any]]:
    """The text of the factory of ``function`` whose body is what
    ``out`` holds, its memories closed however it ends, and the constants it names."""
    _keys, broad, opened = _layout(patterns)
    head = [f"def factory({', '.join(f'c{index}' for index in range(len(out.constants)))}):", f"    def {function}({signature}):", *before]
    if out.initial:
        head.append("        if initial_bindings:")
        head.append("            get = initial_bindings.get")
        head.extend(f"            {held} = get({name!r}, U)" for name, held in out.initial.items())
        head.append("        else:")
        head.append(f"            initial_bindings = NOTHING; {' = '.join(out.initial.values())} = U")
    else:
        head.append("        if not initial_bindings: initial_bindings = NOTHING")
    tail = []
    if broad:
        head.append(f"        {' = '.join(opened)} = None")
        head.extend(f"        r{index} = []" for index in broad)
        head.append("        try:")
        tail.append("        finally:")
        tail.extend(f"            if m{index} is not None: m{index}.close(r{index})" for index in broad)
    return "\n".join([*head, *out.lines, *tail, *after, f"    return {function}", ""]), out.constants


def _write(patterns: tuple[Pattern, ...], condition: "Compare | None") -> tuple[str, list[Any]]:
    """The text of the search of ``patterns`` under ``condition`` (see
    :func:`_loops`) and the constants it names: every match, a :class:`Match`."""
    _keys, broad, opened = _layout(patterns)
    out = Source(3 if broad else 2, 1 if broad else 0, opened)
    entries, atoms = _loops(out, patterns, condition)
    out.line(f"b = View({out.bindings(pending=True)})")
    if atoms:  # by identity: rules are equal by name
        out.line(f"if {' or '.join(f'{atom} is owner' for atom in atoms)}: continue")
    sites = [*entries, *out.sites]
    out.line(f"found.append(Match(b, [{', '.join(atoms)}], ({', '.join(sites)}{',' * (len(sites) == 1)})))")
    out.line("if first: return found")
    out.close()
    return _frame(out, patterns, "search", _SIGNATURE, ["        found = []"], ["        return found"])


def first_match(rule: "Rule", solution: Multiset) -> Match | None:
    """The first match of ``rule`` in ``solution`` that does not consume the
    rule itself — all the reduction engine ever asks for.

    Runs on what the rule built once (its compiled search, condition
    included), from the rule's :attr:`~repro.hocl.rules.Rule.given` bindings, and leaves
    the has-candidates refutation to the engine, which decides on it whether
    a search is charged at all.
    """
    found = rule.search.run(solution, rule, rule.given, None, (), True)
    return found[0] if found else None


def find_matches(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: "Compare | None" = None,
    initial_bindings: Bindings | None = None,
    *,
    pinned: int | None = None,
    pinned_entries: Sequence[Any] = (),
) -> Iterator[Match]:
    """Every match of ``patterns`` against distinct atoms of ``solution``.

    Parameters
    ----------
    patterns:
        The rule's left-hand-side patterns, each of which must match a
        different atom occurrence.
    solution:
        The multiset to search.
    condition:
        Optional reaction condition (a :class:`~repro.hocl.rules.Compare`);
        matches it does not hold for are discarded.
    initial_bindings:
        Optional starting environment: context variables such as the owning
        task name (what :func:`first_match` passes as a rule's ``given``).
    pinned, pinned_entries:
        Pattern ``pinned`` draws its candidates from ``pinned_entries``
        (occurrence entries) instead of its bucket — how
        :meth:`~repro.hocl.patterns.Pattern.match` holds one pattern to one
        atom.  The patterns still run in declaration order.
    """
    search = compiled_search(patterns, condition).run
    return iter(search(solution, None, initial_bindings, pinned, pinned_entries))


def find_first_match(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: "Compare | None" = None,
    initial_bindings: Bindings | None = None,
) -> Match | None:
    """Return the first match of ``patterns`` against ``solution`` or ``None``."""
    found = compiled_search(patterns, condition).run(solution, None, initial_bindings, first=True)
    return found[0] if found else None


def count_matches(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: "Compare | None" = None,
) -> int:
    """Count the matches of ``patterns`` against ``solution`` (diagnostics)."""
    return sum(1 for _ in find_matches(patterns, solution, condition))
