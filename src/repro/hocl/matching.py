"""Multiset-level pattern matching.

A rule's left-hand side is a sequence of patterns that must match *distinct*
atoms of the solution simultaneously, under a single consistent binding
environment, and subject to the rule's reaction condition.  This module
implements that search.

The matcher is a backtracking search that draws its candidates from the
multiset's head-symbol index (:meth:`~repro.hocl.multiset.Multiset.candidate_entries`)
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
from typing import Any, Callable, Iterator, Sequence

from .atoms import Atom
from .multiset import Multiset
from .patterns import Bindings, Pattern

__all__ = ["Match", "find_matches", "find_first_match", "count_matches"]


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
    """Yield every match of ``patterns`` against distinct atoms of ``solution``.

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
    base: Bindings = dict(initial_bindings) if initial_bindings else {}
    # Cheap structural refutation first: every pattern needs at least one
    # candidate in its static bucket for a match to exist at all.
    for pattern in patterns:
        if not solution.has_candidates(pattern.index_key()):
            return
    # Candidate lists are snapshots, fetched lazily per recursion step so
    # patterns after the first can narrow their bucket with the bindings
    # accumulated so far (index_key_with) — e.g. ``gw_pass`` looks up its
    # destination tuple directly instead of scanning every task.  A pattern
    # left with a whole kind bucket (or no key) draws from the level's
    # plausible-candidate memory: the same entries, in the same order, minus
    # those its quick_reject already refuted.  Fetches are cached per
    # (position, key) so a backtracking search copies each bucket once.
    fetched: dict[tuple[int, Any], list] = {}
    memories: dict[int, Any] = {}  # position -> the memory it drew from, if any

    def candidates_at(index: int, env: Bindings) -> list:
        pattern = patterns[index]
        key = pattern.index_key_with(env) if env else pattern.index_key()
        cached = fetched.get((index, key))
        if cached is None:
            memory = solution.memory_for(pattern, key)
            if memory is None:
                cached = solution.candidate_entries(key)
            else:
                cached = memory.snapshot()
                memories[index] = memory
            fetched[(index, key)] = cached
        return cached

    def recurse(index: int, used: list, env: Bindings) -> Iterator[Match]:
        if index == len(patterns):
            if condition is None or condition(env):
                yield Match(bindings=env, consumed=[entry.atom for entry in used])
            return
        pattern = patterns[index]
        for entry in pinned_entries if index == pinned else candidates_at(index, env):
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
                if index in memories:
                    memories[index].refute(entry)
                continue
            for extended in pattern.match(entry.atom, env):
                yield from recurse(index + 1, used + [entry], extended)

    yield from recurse(0, [], base)


def find_first_match(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
    initial_bindings: Bindings | None = None,
) -> Match | None:
    """Return the first match of ``patterns`` against ``solution`` or ``None``."""
    for match in find_matches(patterns, solution, condition, initial_bindings):
        return match
    return None


def count_matches(
    patterns: Sequence[Pattern],
    solution: Multiset,
    condition: Callable[[Bindings], bool] | None = None,
) -> int:
    """Count the matches of ``patterns`` against ``solution`` (diagnostics)."""
    return sum(1 for _ in find_matches(patterns, solution, condition))
