"""Multiset-level pattern matching.

A rule's left-hand side is a sequence of patterns that must match *distinct*
atoms of the solution simultaneously, under a single consistent binding
environment, and subject to the rule's reaction condition.  This module
implements that search.

The matcher is one backtracking search, compiled once per distinct left-hand
side (:func:`compiled_search`) and asked two ways: :func:`first_match` returns
the first admissible match of a rule — all the reduction engine ever consumes —
and :func:`find_matches` enumerates every match of a pattern sequence.  It
draws its candidates from the multiset's head-symbol index
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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence
from weakref import WeakValueDictionary

from .atoms import Atom, Symbol
from .multiset import Multiset
from .patterns import UNBOUND, Bindings, BindingView, Continuation, Layout, Matcher, Pattern, Registers

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


#: ``search(solution, condition, owner, initial_bindings, exclude, pinned,
#: pinned_entries, first)``: every match in enumeration order, or — ``first``
#: — only the first one.  A match that would consume ``owner`` is not one.
Search = Callable[..., "list[Match]"]
#: the registers every search reserves for what it was asked
_SOLUTION, _CONDITION, _OWNER, _EXCLUDE, _PINNED, _PINNED_ENTRIES, _FIRST, _FOUND = range(8)
#: left-hand side (its pattern objects) -> its search, while a rule holds it
_COMPILED: "WeakValueDictionary[tuple[Pattern, ...], Search]" = WeakValueDictionary()


def compiled_search(patterns: Sequence[Pattern]) -> Search:
    """The search of the left-hand side ``patterns``, compiled on first use.

    One per distinct left-hand side per process: rules built on the same
    pattern objects (the per-task ``gw_call`` rules) share it, and so do agents
    and threads — it holds no state, every call lays out its own registers.
    """
    key = tuple(patterns)
    search = _COMPILED.get(key)
    if search is None:
        search = _COMPILED[key] = _compile(key)
    return search


def _compile(patterns: tuple[Pattern, ...]) -> Search:
    layout = Layout(reserved=_FOUND + 1)
    count = len(patterns)
    used = layout.scratch(count)  # the entry each pattern took

    def finish(registers: Registers) -> bool:
        bindings = layout.view(registers)
        condition = registers[_CONDITION]
        if condition is not None and not condition(bindings):
            return False
        consumed = [entry.atom for entry in registers[used : used + count]]
        if id(registers[_OWNER]) in map(id, consumed):  # by identity: rules are equal by name
            return False
        registers[_FOUND].append(Match(bindings, consumed))
        return registers[_FIRST]

    then: Continuation = finish
    for index in range(count - 1, -1, -1):
        then = _draw(patterns[index], patterns[index].compile(layout, then), layout, used, index)

    def search(
        solution: Multiset,
        condition: Callable[[Bindings], bool] | None = None,
        owner: Atom | None = None,
        initial_bindings: Mapping[str, Any] | None = None,
        exclude: Callable[[Atom], bool] | None = None,
        pinned: int | None = None,
        pinned_entries: Sequence[Any] = (),
        first: bool = False,
    ) -> list[Match]:
        found: list[Match] = []
        registers = layout.registers(initial_bindings)
        registers[: _FOUND + 1] = solution, condition, owner, exclude, pinned, pinned_entries, first, found
        then(registers)
        return found

    return search


def _draw(pattern: Pattern, match: Matcher, layout: Layout, used: int, index: int) -> Continuation:
    """Pattern ``index`` of a left-hand side: try, in bucket order, every
    candidate entry no earlier pattern took.

    The candidates are drawn when the pattern is reached, so a broad key (a
    kind bucket, or none) can be narrowed by what the patterns before bound:
    ``gw_pass`` looks up its destination tuple instead of scanning every task.
    A pattern left with a broad key draws from the level's plausible-candidate
    memory — the same entries, in the same order, minus those its
    ``quick_reject`` refuted (for good: it holds under any bindings) — in one
    snapshot per search.  Any other bucket is short, and read live: nothing
    mutates the solution while a search runs.
    """
    key = pattern.index_key()
    broad = key is None or key[0] == "kind"
    narrowing = pattern.narrowing_variable() if broad else None
    narrow = layout.slot(narrowing) if narrowing is not None else None
    fetched = layout.scratch()  # (snapshot, memory) of this search

    def draw(registers: Registers) -> bool:
        solution = registers[_SOLUTION]
        memory = None
        if index == registers[_PINNED]:
            entries = registers[_PINNED_ENTRIES]
        elif not broad:
            entries = solution.live_entries(key)
        elif narrow is not None and isinstance(registers[narrow], Symbol):
            entries = solution.live_entries(("tuple", registers[narrow].name))
        else:
            if registers[fetched] is UNBOUND:
                memory = solution.memory_for(pattern, key)
                registers[fetched] = memory.snapshot(), memory
            entries, memory = registers[fetched]
        exclude = registers[_EXCLUDE]
        taken = registers[used : used + index]  # `_Entry` has no `__eq__`: `in` is an identity scan
        for entry in entries:
            if entry in taken or (exclude is not None and exclude(entry.atom)):
                continue
            if memory is not None and pattern.quick_reject(entry.atom):
                memory.refute(entry)
                continue
            registers[used + index] = entry
            if match(entry.atom, registers):
                return True
        return False

    return draw


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
    found = rule.search(solution, rule.guarded_condition, rule, None, exclude, pinned, pinned_entries, True)
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
    search = compiled_search(patterns)
    return iter(search(solution, condition, None, initial_bindings, exclude, pinned, pinned_entries))


def find_first_match(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
    initial_bindings: Bindings | None = None,
) -> Match | None:
    """Return the first match of ``patterns`` against ``solution`` or ``None``."""
    found = compiled_search(patterns)(solution, condition, None, initial_bindings, first=True)
    return found[0] if found else None


def count_matches(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
) -> int:
    """Count the matches of ``patterns`` against ``solution`` (diagnostics)."""
    return sum(1 for _ in find_matches(patterns, solution, condition))
