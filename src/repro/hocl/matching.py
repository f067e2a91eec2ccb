"""Multiset-level pattern matching.

A rule's left-hand side is a sequence of patterns that must match *distinct*
atoms of the solution simultaneously, under a single consistent binding
environment, and subject to the rule's reaction condition.  This module
implements that search.

The matcher is one backtracking search per distinct left-hand side
(:func:`compiled_search`), *generated*: the patterns write the Python source of
one flat function (:meth:`~repro.hocl.patterns.Pattern.emit` — nested ``for``
loops over index buckets, variables as locals, the condition and the
:class:`Match` at the innermost level), compiled once per distinct text at the
first search and readable as ``compiled_search(patterns).__source__``.  It is
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
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence
from weakref import WeakValueDictionary

from .atoms import Atom, Subsolution, Symbol, TupleAtom
from .multiset import _EMPTY, Multiset
from .errors import PatternError
from .patterns import UNBOUND, Bindings, BindingView, Omega, Pattern, Source, _Rest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rules import Rule

__all__ = ["Match", "compiled_search", "first_match", "find_matches", "find_first_match", "count_matches"]


@dataclass
class Match:
    """The result of matching a rule's left-hand side against a solution.

    Attributes
    ----------
    bindings:
        Variable environment produced by the match (a plain mapping is wrapped).
    consumed:
        The exact atom objects (by identity) matched by the left-hand side;
        the engine removes these when the rule fires.
    """

    bindings: Bindings
    consumed: list[Atom] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.bindings, BindingView):
            self.bindings = BindingView(self.bindings)


#: what every generated text may name without being handed it
_NAMES = {
    "U": UNBOUND, "NOTHING": {}, "EMPTY": _EMPTY, "Symbol": Symbol, "TupleAtom": TupleAtom,
    "Subsolution": Subsolution, "Rest": _Rest, "View": BindingView, "Match": Match,
}  # fmt: skip
_SIGNATURE = "solution, condition=None, owner=None, initial_bindings=None, exclude=None, pinned=None, pinned_entries=(), first=False"
#: source text -> the factory it defines: ``factory(c0, c1, ...)`` is the search of one left-hand side
_FACTORIES: dict[str, Callable[..., Any]] = {}
_FACTORY_LIMIT = 512  #: shape churn (random programs) cannot leak
_serial = count(1)
#: left-hand side (its pattern objects) -> its search, while a rule holds it
_COMPILED: "WeakValueDictionary[tuple[Pattern, ...], Search]" = WeakValueDictionary()


class Search:
    """The search of one left-hand side: ``search(solution, condition, owner,
    initial_bindings, exclude, pinned, pinned_entries, first)`` is every match in
    enumeration order, or — ``first`` — only the first one; a match that would
    consume ``owner`` is not one.

    ``run`` is the generated function (what the engine calls) and ``__source__``
    its text, both written at the first search: a left-hand side nothing ever
    searches costs nothing.
    """

    __slots__ = ("patterns", "run", "__source__", "__weakref__")

    def __init__(self, patterns: tuple[Pattern, ...]):
        self.patterns = patterns

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

    def _first(self, solution: Multiset, condition: Any = None, owner: Any = None, *rest: Any, **more: Any) -> "list[Match]":
        self._generate(getattr(owner, "name", None))
        return self.run(solution, condition, owner, *rest, **more)

    def _generate(self, rule: str | None) -> None:
        text, constants = _write(self.patterns)
        factory = _FACTORIES.get(text)
        if factory is None:
            factory = _load(text, f"<hocl-lhs {rule or 'patterns'} #{next(_serial)}>")
        self.__source__, self.run = text, factory(*constants)


def compiled_search(patterns: Sequence[Pattern]) -> Search:
    """The search of the left-hand side ``patterns``, generated at its first use.

    One per distinct left-hand side per process: rules built on the same
    pattern objects (the per-task ``gw_call`` rules) share it, and so do agents
    and threads — it holds no state, every call runs on its own locals.
    """
    key = tuple(patterns)
    search = _COMPILED.get(key)
    if search is None:
        for pattern in key:
            _refuse(pattern)
        search = _COMPILED[key] = Search(key)
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
    exec(compile(text, filename, "exec"), scope)  # noqa: S102 - text this module wrote
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    factory = _FACTORIES[text] = scope["factory"]
    return factory


def _write(patterns: tuple[Pattern, ...]) -> tuple[str, list[Any]]:
    """The text of the search of ``patterns`` and the constants it names.

    One nested ``for`` per pattern, in declaration order, over every candidate
    entry no earlier pattern took, in bucket order.  The candidates are drawn
    when the pattern is reached, so a broad key (a kind bucket, or none) can be
    narrowed by what the patterns before bound: ``gw_pass`` looks up its
    destination tuple instead of scanning every task.  A pattern left with a
    broad key draws from the level's plausible-candidate memory — the same
    entries, in the same order, minus those its ``quick_reject`` refuted (for
    good: it holds under any bindings) — iterated in place: what this search
    refutes is forgotten when it ends, however it ends.  Any other bucket is
    short, and read live: nothing mutates the solution while a search runs.
    """
    keys = [pattern.index_key() for pattern in patterns]
    broad = [index for index, key in enumerate(keys) if key is None or key[0] == "kind"]
    opened = [f"{stem}{index}" for index in broad for stem in "md"]  # memory and its entries, once a pattern got that far
    out = Source(3 if broad else 2, 1 if broad else 0, opened)
    entries: list[str] = []
    atoms: list[str] = []
    if not patterns:
        out.loop("for _ in (None,):")
    for index, (pattern, key) in enumerate(zip(patterns, keys)):
        entry, atom = out.local("e"), out.local("a")
        if index in broad:
            own = out.const(pattern)
            out.line(f"if pinned == {index}: n{index} = pinned_entries; q{index} = None")
            narrowing = pattern.narrowing_variable()
            if narrowing is not None:
                held = out.held(narrowing)
                out.line(f"elif isinstance({held}, Symbol): n{index} = solution._index.get(('tuple', {held}.name), EMPTY); q{index} = None")
            out.line("else:")
            out.line(f"    if m{index} is None: m{index} = solution.memory_for({own}, {out.const(key)}); d{index} = m{index}.open()")
            out.line(f"    n{index} = d{index}; q{index} = {own}.quick_reject")
            out.loop(f"for {entry} in n{index}:")
        else:
            out.loop(f"for {entry} in pinned_entries if pinned == {index} else {out.bucket('solution', key)}:")
        if entries:  # `_Entry` has no `__eq__`: identity is all there is to test
            out.line(f"if {' or '.join(f'{entry} is {other}' for other in entries)}: continue")
        out.line(f"{atom} = {entry}.atom")
        out.line(f"if exclude is not None and exclude({atom}): continue")
        if index in broad:
            out.line(f"if q{index} is not None and q{index}({atom}): r{index}.append({entry}); continue")
        pattern.emit(out, atom)
        entries.append(entry)
        atoms.append(atom)
    out.line(f"b = View({out.bindings()})")
    out.line("if condition is not None and not condition(b): continue")
    if atoms:  # by identity: rules are equal by name
        out.line(f"if {' or '.join(f'{atom} is owner' for atom in atoms)}: continue")
    out.line(f"found.append(Match(b, [{', '.join(atoms)}]))")
    out.line(f"if first: {out.stop}")
    out.close()
    head = [f"def factory({', '.join(f'c{index}' for index in range(len(out.constants)))}):", f"    def search({_SIGNATURE}):"]
    head.append("        found = []")
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
    tail.append("        return found")
    tail.append("    return search")
    return "\n".join([*head, *out.lines, *tail, ""]), out.constants


def first_match(
    rule: "Rule",
    solution: Multiset,
    exclude: Callable[[Atom], bool] | None = None,
    pinned: int | None = None,
    pinned_entries: Sequence[Any] = (),
) -> Match | None:
    """The first match of ``rule`` in ``solution`` that does not consume the
    rule itself — all the reduction engine ever asks for.

    Runs on what the rule built once (compiled search, guarded condition)
    and leaves the has-candidates refutation to the engine, which decides
    on it whether a search is charged at all.  ``exclude`` and
    ``pinned``/``pinned_entries`` are the batched engine's claim check and
    frontier lead, as in :func:`find_matches`.
    """
    found = rule.search.run(solution, rule.guarded_condition, rule, None, exclude, pinned, pinned_entries, True)
    return found[0] if found else None


def find_matches(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
    initial_bindings: Bindings | None = None,
    exclude: Callable[[Atom], bool] | None = None,
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
        Optional reaction condition evaluated on the bindings; matches for
        which it returns ``False`` are discarded.
    initial_bindings:
        Optional starting environment (used by the engine to pre-bind
        context variables such as the owning task name).
    exclude:
        Optional identity predicate over top-level candidates; atoms for
        which it returns ``True`` are skipped *before* any structural
        matching.  The batched engine passes its claimed-atom check here, so
        candidates consumed earlier in the same batch cost one call instead
        of a full pattern descent.
    pinned, pinned_entries:
        The batched engine's *frontier* enumeration: pattern ``pinned`` draws
        its candidates from ``pinned_entries`` (the occurrence entries of
        atoms that changed since the last pass) instead of its bucket.  The
        patterns still run in **declaration order**, keeping the selectivity
        rule authors encode in it: with the frontier atom in a *late* pattern
        (a fan-in hub), the earlier ones bind the join variables first.
    """
    search = compiled_search(patterns).run
    return iter(search(solution, condition, None, initial_bindings, exclude, pinned, pinned_entries))


def find_first_match(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
    initial_bindings: Bindings | None = None,
) -> Match | None:
    """Return the first match of ``patterns`` against ``solution`` or ``None``."""
    found = compiled_search(patterns).run(solution, condition, None, initial_bindings, first=True)
    return found[0] if found else None


def count_matches(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
) -> int:
    """Count the matches of ``patterns`` against ``solution`` (diagnostics)."""
    return sum(1 for _ in find_matches(patterns, solution, condition))
