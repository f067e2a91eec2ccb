"""Multiset-level pattern matching.

A rule's left-hand side is a sequence of patterns that must match *distinct*
atoms of the solution simultaneously, under a single consistent binding
environment, and subject to the rule's reaction condition.  This module
implements that search.

The matcher is one backtracking search (``_search``) asked two ways:
:func:`first_match` returns the first admissible match of a rule — all the
reduction engine ever consumes — and :func:`find_matches` enumerates every
match of a pattern sequence (diagnostics, tests).  It draws its candidates from
the multiset's head-symbol index (:meth:`~repro.hocl.multiset.Multiset.live_entries`)
instead of scanning every atom for every pattern: a pattern such as
``RES : <...>`` only ever sees the tuples whose head is ``RES``.  Because
every bucket preserves insertion order and is a guaranteed superset of the
atoms its patterns can match, the sequence of matches produced — and hence
the engine's reduction trace — is identical to a naive full scan.

Distinctness is tracked per *occurrence* (the index hands out one entry per
stored occurrence), so a solution holding the same atom object twice — e.g.
two ``ADAPT`` markers injected by repeated messages — still offers both
occurrences to multi-pattern rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .atoms import Atom
from .multiset import Multiset
from .patterns import Bindings, Pattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rules import Rule

__all__ = ["Match", "first_match", "find_matches", "find_first_match", "count_matches"]


@dataclass
class Match:
    """The result of matching a rule's left-hand side against a solution.

    Attributes
    ----------
    bindings:
        Variable environment produced by the match.
    consumed:
        The exact atom objects (by identity) matched by the left-hand side;
        the engine removes these when the rule fires.
    """

    bindings: Bindings
    consumed: list[Atom] = field(default_factory=list)


def _search(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None,
    initial_bindings: Bindings | None,
    exclude: Callable[[Atom], bool] | None,
    pinned: int | None,
    pinned_entries: Sequence[Any],
    first: bool,
    keys: Sequence[Any] | None = None,
    owner: Atom | None = None,
) -> list[Match]:
    """The one backtracking search: every match in enumeration order, or —
    ``first`` — only the first one.

    ``keys`` are the patterns' static index keys.  A rule brings its own,
    computed once, and its engine has checked them; for bare patterns they
    are computed here, with the cheap structural refutation first: every
    pattern needs a candidate in its static bucket for a match to exist.
    Each recursion step fetches its candidates when it is reached, so
    patterns after the first can narrow a broad key (a kind bucket, or none)
    with the bindings accumulated so far (``index_key_with``) — e.g.
    ``gw_pass`` looks up its destination tuple directly instead of scanning
    every task.  A pattern left with a whole kind bucket (or no key) draws
    from the level's plausible-candidate memory: the same entries, in the
    same order, minus those its ``quick_reject`` already refuted.  Fetches
    are cached per (position, key) so a backtracking search reads each bucket
    once; nothing mutates the solution while a search runs, so a bucket is
    read live.  A match that would consume ``owner`` (the searching rule) is
    not one.
    """
    found: list[Match] = []
    if keys is None:
        keys = [pattern.index_key() for pattern in patterns]
        if not all(solution.has_candidates(key) for key in keys):
            return found
    last = len(patterns)
    fetched: dict[tuple[int, Any], tuple[Sequence[Any], Any]] = {}

    def recurse(index: int, used: list, env: Bindings) -> bool:
        """Search from pattern ``index`` on; ``True`` stops the whole search."""
        if index == last:
            if condition is not None and not condition(env):
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
                key = pattern.index_key_with(env)  # a head key is as sharp as it gets
            cached = fetched.get((index, key))
            if cached is None:
                memory = solution.memory_for(pattern, key)
                entries = solution.live_entries(key) if memory is None else memory.snapshot()
                fetched[(index, key)] = (entries, memory)
            else:
                entries, memory = cached
        for entry in entries:
            # `used` is at most len(patterns) long, and entries have no
            # __eq__, so `in` is a C-speed identity scan.
            if entry in used:
                continue
            if exclude is not None and exclude(entry.atom):
                continue
            # binding-free pre-check: skip the generator cascade for the
            # (overwhelmingly common) structurally impossible candidates — for
            # good where a memory keeps track (it holds under any bindings)
            if pattern.quick_reject(entry.atom):
                if memory is not None:
                    memory.refute(entry)
                continue
            for extended in pattern.match(entry.atom, env):
                if recurse(index + 1, used + [entry], extended):
                    return True
        return False

    recurse(0, [], dict(initial_bindings) if initial_bindings else {})
    return found


def first_match(
    rule: "Rule",
    solution: Multiset,
    exclude: Callable[[Atom], bool] | None = None,
    pinned: int | None = None,
    pinned_entries: Sequence[Any] = (),
) -> Match | None:
    """The first match of ``rule`` in ``solution`` that does not consume the
    rule itself — all the reduction engine ever asks for.

    Runs on what the rule built once (patterns, index keys, guarded
    condition) and leaves the has-candidates refutation to the engine, which
    decides on it whether a search is charged at all.  ``exclude`` and
    ``pinned``/``pinned_entries`` are the batched engine's claim check and
    frontier lead, as in :func:`find_matches`.
    """
    found = _search(
        rule.patterns,
        solution,
        rule.guarded_condition,
        None,
        exclude,
        pinned,
        pinned_entries,
        True,
        keys=rule.pattern_index_keys,
        owner=rule,
    )
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
    return iter(_search(patterns, solution, condition, initial_bindings, exclude, pinned, pinned_entries, False))


def find_first_match(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
    initial_bindings: Bindings | None = None,
) -> Match | None:
    """Return the first match of ``patterns`` against ``solution`` or ``None``."""
    found = _search(patterns, solution, condition, initial_bindings, None, None, (), True)
    return found[0] if found else None


def count_matches(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
) -> int:
    """Count the matches of ``patterns`` against ``solution`` (diagnostics)."""
    return sum(1 for _ in find_matches(patterns, solution, condition))
