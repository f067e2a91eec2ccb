"""The multiset (chemical solution) container.

A :class:`Multiset` is an unordered bag of :class:`~repro.hocl.atoms.Atom`
instances that may contain duplicates.  It is the single data structure the
HOCL reduction engine rewrites: rules consume atoms from it and inject new
atoms into it.

The implementation keeps an insertion-ordered list internally (which makes
reduction deterministic and greatly simplifies
testing) but none of the public semantics depend on that order.

Incrementality support
----------------------
Reduction dominates the cost of large GinFlow runs, so the multiset carries
the book-keeping that lets the engine work incrementally:

* a **version counter** (:attr:`version`), bumped on every mutation and
  propagated up the chain of enclosing solutions (a sub-solution knows the
  one multiset, and the top-level entry in it, that holds it), so any change
  anywhere in the tree invalidates the cached inertness of every ancestor;
* **flagged entries** (:meth:`unsettled_solutions`): the same propagation flags,
  in each enclosing multiset, the entry below which something that can react
  (:attr:`can_react`: it holds a rule or a nested solution) changed — the
  engine descends into those only — and every **plausible-candidate memory**
  (:meth:`memory_for`) takes the entry back, whatever changed below it;
* a **candidate index** keyed by the "head shape" of each atom (rule name,
  bare-symbol name, tuple head symbol, or atom kind), from which the matcher
  draws candidates instead of scanning every atom for every pattern — see
  :func:`atom_index_keys`;
* an **inertness marker** (:meth:`note_inert` / :attr:`known_inert`): the
  engine stamps the version at which a solution was proven inert and skips
  re-reducing it while the version is unchanged.

The index stores one *occurrence entry* per stored atom (the same atom
object added twice yields two entries), preserving global insertion order
within every bucket; this is what keeps the indexed matcher's candidate
enumeration — and therefore the reduction trace — identical to a naive scan.

Every solution is built through :meth:`Multiset.add`: an atom as it is, its cached index keys,
what it holds wired in one pass, and no :meth:`Multiset._touch` when nothing encloses it.

A sub-solution is one molecule of one enclosing solution: :meth:`Multiset.add`
refuses (``AtomError``, nothing changed) an atom holding a solution that
already has a holder, or one enclosing the receiver.  A solution goes
elsewhere as a copy (``Atom.copy``), which is how rule products expand.
"""

from __future__ import annotations

from bisect import insort
from heapq import merge
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .atoms import (
    Atom,
    BoolAtom,
    FloatAtom,
    IntAtom,
    ListAtom,
    StringAtom,
    Subsolution,
    Symbol,
    TupleAtom,
    to_atom,
)
from .errors import AtomError

__all__ = ["Multiset", "atom_index_keys"]

#: Index key of the bucket holding every rule atom.
_KIND_RULE = ("kind", "rule")

#: Shared empty list (never mutated): the bucket of an absent key, and the rule
#: ordering of a multiset until its first ordering allocates its own.
_EMPTY: list = []


def _held_solutions(atom: Atom) -> "list[Multiset]":
    """Every solution held anywhere in ``atom`` — through tuples and lists, one
    per occurrence, not inside those solutions: what a change can come from."""
    if isinstance(atom, Subsolution):
        return [atom.solution]
    # a tuple or a list: nothing else holds solutions without being one
    items = atom.elements if isinstance(atom, TupleAtom) else atom.items  # type: ignore[attr-defined]
    return [held for item in items if item._mutable for held in _held_solutions(item)]


def atom_index_keys(atom: Atom) -> tuple[Any, ...]:
    """The index buckets ``atom`` belongs to, most specific first.

    Every atom lands in its *kind* bucket ``("kind", atom.kind)``; atoms with
    a distinguishing head additionally land in a specific bucket:

    * rules → ``("rule", name)``,
    * bare symbols → ``("symbol", name)``,
    * tuples with a symbol head → ``("tuple", head_name)``.

    Structurally equal atoms always share the same buckets, so the specific
    bucket named by a pattern's :meth:`~repro.hocl.patterns.Pattern.index_key`
    is guaranteed to contain every atom that pattern could match.

    Keys are immutable per atom (a tuple's head never changes), so they are
    computed once and cached — per instance for symbols/tuples/rules, as a
    class-level constant for the single-bucket kinds.
    """
    cached = atom._index_keys
    if cached is not None:
        return cached
    kind_key = ("kind", atom.kind)
    if isinstance(atom, Symbol):
        keys: tuple[Any, ...] = (("symbol", atom.name), kind_key)
    elif isinstance(atom, TupleAtom):
        head = atom.elements[0]
        if not isinstance(head, Symbol):
            keys = (kind_key,)
        else:
            # one keys tuple for every tuple the (interned) symbol heads, kept on the symbol
            if head._head_keys is None:
                head._head_keys = (("tuple", head.name), kind_key)
            keys = head._head_keys
    elif atom.kind == "rule":
        keys = (("rule", atom.name), kind_key)  # type: ignore[attr-defined]
    else:
        keys = (kind_key,)
    try:
        atom._index_keys = keys
    except AttributeError:
        pass  # class without a cache slot (covered by the constants below)
    return keys


# Single-bucket kinds: every instance shares the same keys — store them as
# class-level constants so `atom_index_keys` returns without any allocation.
for _atom_class in (IntAtom, FloatAtom, BoolAtom, StringAtom, ListAtom, Subsolution):
    _atom_class._index_keys = (("kind", _atom_class.kind),)
del _atom_class


class _Entry:
    """One stored occurrence of an atom (duplicates get distinct entries).

    ``seq`` (the multiset's version when the entry joined) grows along
    ``_entries`` and every bucket: sorting by it restores entry order.
    """

    __slots__ = ("atom", "seq")

    def __init__(self, atom: Atom, seq: int):
        self.atom = atom
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"_Entry({self.atom!r})"


_seq, _atom, _priority = attrgetter("seq"), attrgetter("atom"), attrgetter("priority")


class _Memory:
    """The plausible candidates of one broad-keyed pattern at one level: the
    entries of bucket ``key`` its ``quick_reject`` has not refuted since they
    last changed, in bucket order.

    ``entries`` is in bucket order.  An entry returning out of turn (something
    changed below it) waits in ``late``, kept in bucket order too, and a read
    merges the two as it goes: what did not move is never re-sorted, so a
    read costs what it visits, not the size of the memory.  ``late`` is folded
    into ``entries`` in one pass only once it outgrows an eighth of it, so
    each pass is paid for by as many returns."""

    __slots__ = ("key", "entries", "late", "readers")

    def __init__(self, key: Any, bucket: Iterable[_Entry]):
        self.key = key
        self.entries: dict[_Entry, None] = dict.fromkeys(bucket)
        self.late: list[_Entry] = []
        self.readers = 0  # searches iterating the memory right now

    def admit(self, entry: _Entry, keys: tuple[Any, ...], last: bool) -> None:
        """Take ``entry`` (its atom's index ``keys``) if it is of this bucket;
        ``last``: it is the newest entry of the level (it goes last)."""
        if (self.key is None or self.key in keys) and entry not in self.entries and entry not in self.late:
            if last:
                self.entries[entry] = None
            else:
                insort(self.late, entry, key=_seq)

    def refute(self, entry: _Entry) -> None:
        """``quick_reject`` refuted ``entry`` (or it left the level): forget it until it changes."""
        late = self.late
        if self.entries.pop(entry, late) is late and entry in late:
            late.remove(entry)

    def _merged(self) -> Iterable[_Entry]:
        """The remembered entries in bucket order, read in place (as often as asked)."""
        if not self.late:
            return self.entries
        if len(self.late) * 8 > len(self.entries):
            self.entries = dict.fromkeys(merge(self.entries, self.late, key=_seq))
            self.late = []
            return self.entries
        return _Merged(self.entries, self.late)

    def snapshot(self) -> list[_Entry]:
        """The remembered entries in bucket order, safe across mutations."""
        return list(self._merged())

    def open(self) -> Iterable[_Entry]:
        """The remembered entries in bucket order, to iterate in place — no copy
        per search.  What the reader refutes meanwhile it hands to :meth:`close`."""
        merged = self._merged()
        self.readers += 1
        return merged

    def close(self, refuted: list[_Entry]) -> None:
        """End a read begun by :meth:`open`, forgetting the ``refuted`` entries."""
        self.readers -= 1
        if self.readers and refuted:
            # a search run from inside a search (by a condition): the outer one
            # goes on over the containers it holds, this one leaves new ones
            self.entries = {entry: None for entry in self.entries if entry not in refuted}
            self.late = [entry for entry in self.late if entry not in refuted]
        else:
            for entry in refuted:
                self.refute(entry)


class _Merged:
    """A memory's entries and its late ones, iterated as one sequence in bucket order."""

    __slots__ = ("entries", "late")

    def __init__(self, entries: dict[_Entry, None], late: list[_Entry]):
        self.entries, self.late = entries, late

    def __iter__(self) -> Iterator[_Entry]:
        return merge(self.entries, self.late, key=_seq)


class Multiset:
    """An unordered bag of atoms with duplicates, the HOCL *solution*.

    Parameters
    ----------
    contents:
        Optional iterable of atoms or plain Python values (coerced with
        :func:`~repro.hocl.atoms.to_atom`).
    """

    __slots__ = (
        "_entries",
        "_index",
        "_version",
        "_holder",
        "_inert_version",
        "_rules_cache",
        "_rules_dirty",
        "_nested",
        "_flagged",
        "_memories",
        "_content_hash",
        "_hash_version",
    )

    def __init__(self, contents: Iterable[Any] = ()):  # noqa: B008
        self._entries: list[_Entry] = []
        self._index: dict[Any, list[_Entry]] = {}
        self._version = 0
        #: the ``(multiset, top-level entry)`` holding this one (a Subsolution
        #: atom anywhere inside the entry's atom), to propagate invalidation
        #: upwards; ``None`` at the root
        self._holder: tuple[Multiset, _Entry] | None = None
        self._inert_version = -1
        self._rules_cache: list[Atom] = _EMPTY
        self._rules_dirty = True
        #: entry -> the solutions directly nested in its atom (a sub-solution
        #: atom's, or those of a tuple's sub-solution elements), in entry
        #: order: the engine's depth-first descent order.  O(1) removal.
        #: ``None`` (like the two maps below) until needed: most are leaves.
        self._nested: dict[_Entry, list[Multiset]] | None = None
        #: the keys of ``_nested`` below which something changed since their
        #: solutions were last proven inert: a superset of the entries holding
        #: a solution that can react and is not ``known_inert``.  Created with
        #: ``_nested``.
        self._flagged: set[_Entry] | None = None
        #: pattern object (identity hash) -> its memory at this level
        self._memories: dict[Any, _Memory] | None = None
        self._content_hash = 0
        self._hash_version = -1
        for value in contents:
            self.add(value)

    # ------------------------------------------------------------ versioning
    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation (here or below)."""
        return self._version

    @property
    def known_inert(self) -> bool:
        """Whether the solution was proven inert at its current version."""
        return self._inert_version == self._version

    @property
    def can_react(self) -> bool:
        """Whether the solution holds a rule or a nested solution right now.

        One that holds neither is inert by construction and never worth a
        visit, whatever its version says; read off the live index, so a rule
        injected into it makes it visitable at once.
        """
        return bool(self._nested) or _KIND_RULE in self._index

    def note_inert(self) -> None:
        """Record that the solution (including nested ones) is inert *now*.

        Called by the reduction engine once no rule can fire anywhere in the
        solution tree; any later mutation invalidates the marker by bumping
        the version.
        """
        self._inert_version = self._version

    def _touch(self) -> None:
        """Bump every enclosing solution's version (a mutation bumps its own); flag the holder in each.

        Walks the one chain of holders up to the root.  A solution that cannot
        react (:attr:`can_react`) raises no descent flag on its holder: there
        is nothing to visit in it.
        """
        below, holder = self, self._holder
        while holder is not None:
            node, entry = holder
            # something changed below `entry`: descent and memories look again
            if (below._nested or _KIND_RULE in below._index) and node._nested is not None and entry in node._nested:
                node._flagged.add(entry)  # type: ignore[union-attr]
            if node._memories is not None:
                keys = entry.atom._index_keys  # cached when the entry joined
                for memory in node._memories.values():
                    memory.admit(entry, keys, False)
            node._version += 1
            below, holder = node, node._holder

    @staticmethod
    def _disown(atom: Atom) -> None:
        """Clear the holder of every solution held in ``atom``."""
        for solution in _held_solutions(atom):
            solution._holder = None

    # ------------------------------------------------------------------ core
    def add(self, value: Any) -> Atom:
        """Add a single atom (coercing plain values) and return it.

        Raises
        ------
        AtomError
            If the atom holds a solution that already has a holder, or one
            enclosing this multiset; the multiset is left as it was.
        """
        atom = value if isinstance(value, Atom) else to_atom(value)
        entry = _Entry(atom, self._version)  # bumped below: later entries sort later
        if atom._mutable:
            # wire every solution it holds to this entry: its own and a tuple's elements'
            # are also nested (reduced); one deeper, as in a list (walked whole), is held only
            pair, nested, held = (self, entry), [], []
            for item in (atom,) if isinstance(atom, Subsolution) else getattr(atom, "elements", (atom,)):
                if isinstance(item, Subsolution):
                    nested.append(item.solution)
                    held.append(item.solution)
                elif item._mutable:
                    held += _held_solutions(item)
            root = self  # a holderless solution enclosing this one can only be its root
            while root._holder is not None:
                root = root._holder[0]
            for index, solution in enumerate(held):
                if solution._holder is not None or solution is root:
                    for wired in held[:index]:
                        wired._holder = None
                    raise AtomError(f"a solution has one holder: {atom} holds one held already, or one enclosing this multiset")
                solution._holder = pair
            if nested:
                if self._nested is None:
                    self._nested = {}
                    self._flagged = set()
                self._nested[entry] = nested
                self._flagged.add(entry)  # type: ignore[union-attr]
        self._entries.append(entry)
        index = self._index
        keys = atom._index_keys
        if keys is None:
            keys = atom_index_keys(atom)
        for key in keys:
            bucket = index.get(key)
            if bucket is None:
                index[key] = [entry]
            else:
                bucket.append(entry)
        if atom.kind == "rule":
            self._rules_dirty = True
        if self._memories is not None:
            for memory in self._memories.values():
                memory.admit(entry, keys, True)  # the last of its buckets: order kept
        self._version += 1
        if self._holder:
            self._touch()
        return atom

    def add_all(self, values: Iterable[Any]) -> list[Atom]:
        """Add every value from ``values``; returns the added atoms."""
        return [self.add(v) for v in values]

    def _bucket_of(self, atom: Atom) -> list[_Entry]:
        """The primary (most specific) index bucket ``atom`` lives in, if stored.

        Equal atoms share their primary key and a bucket is a subsequence of
        ``_entries``, so the first equal (or identical) entry in it is the
        first one overall: no occurrence lookup scans ``_entries``.
        """
        return self._index.get(atom_index_keys(atom)[0], _EMPTY)

    def remove(self, atom: Any) -> None:
        """Remove one occurrence of ``atom`` (structural equality).

        Raises
        ------
        KeyError
            If no equal atom is present.
        """
        target = to_atom(atom)
        for entry in self._bucket_of(target):
            if entry.atom == target:
                self._remove_entry(entry)
                return
        raise KeyError(f"atom not in multiset: {target!r}")

    def discard(self, atom: Any) -> bool:
        """Remove one occurrence of ``atom`` if present; return whether it was."""
        try:
            self.remove(atom)
            return True
        except KeyError:
            return False

    def remove_identical(self, atom: Atom) -> None:
        """Remove the exact object ``atom`` (identity, not equality).

        The matcher records the identity of the atoms it consumed so the
        engine can delete precisely those occurrences even when duplicates
        exist.
        """
        for entry in self._bucket_of(atom):
            if entry.atom is atom:
                self._remove_entry(entry)
                return
        raise KeyError(f"atom object not in multiset: {atom!r}")

    def _remove_entry(self, entry: _Entry) -> None:
        # `_Entry` defines no `__eq__`: each `list.remove` is one C-level
        # identity scan, and never compares atoms.
        self._entries.remove(entry)
        atom = entry.atom
        for key in atom._index_keys or atom_index_keys(atom):  # cached when the entry joined
            bucket = self._index[key]
            bucket.remove(entry)
            if not bucket:
                del self._index[key]
        memories = self._memories
        if memories is not None:
            for memory in memories.values():
                memory.refute(entry)
        if atom.kind == "rule":
            self._rules_dirty = True
            if memories is not None:
                # a retired rule's memories go with it
                for pattern in atom.patterns:  # type: ignore[attr-defined]
                    memories.pop(pattern, None)
        if atom._mutable:
            if self._nested is not None and self._nested.pop(entry, None):
                self._flagged.discard(entry)  # type: ignore[union-attr]
            self._disown(atom)
        self._version += 1
        if self._holder:
            self._touch()

    def clear(self) -> None:
        """Remove every atom."""
        for entry in self._entries:
            if entry.atom._mutable:
                self._disown(entry.atom)
        self._entries.clear()
        self._index.clear()
        self._nested = None
        self._flagged = None
        self._memories = None
        self._rules_dirty = True
        self._version += 1
        if self._holder:
            self._touch()

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Atom]:
        return iter([entry.atom for entry in self._entries])

    def __contains__(self, value: Any) -> bool:
        target = to_atom(value)
        return any(entry.atom == target for entry in self._bucket_of(target))

    def count(self, value: Any) -> int:
        """Number of occurrences equal to ``value``."""
        target = to_atom(value)
        return sum(1 for entry in self._bucket_of(target) if entry.atom == target)

    def atoms(self) -> list[Atom]:
        """A snapshot list of the current atoms (safe to iterate while mutating)."""
        return [entry.atom for entry in self._entries]

    def find(self, predicate: Callable[[Atom], bool]) -> Atom | None:
        """Return the first atom satisfying ``predicate``, or ``None``."""
        for entry in self._entries:
            if predicate(entry.atom):
                return entry.atom
        return None

    # ------------------------------------------------------- index interface
    def candidate_entries(self, key: Any) -> list[_Entry]:
        """Occurrence entries a pattern with index key ``key`` should try.

        ``None`` means the pattern is unconstrained: every occurrence is a
        candidate.  Entries come back in insertion order (a subsequence of
        the full enumeration order), which is what keeps indexed matching
        trace-identical to a naive scan.  The returned list is a snapshot,
        safe to iterate across mutations.
        """
        if key is None:
            return list(self._entries)
        return list(self._index.get(key, ()))

    def live_entries(self, key: Any = None) -> list[_Entry]:
        """Like :meth:`candidate_entries` but returning the *live* internal
        list (no copy) — what the matcher reads, at every level: nothing
        mutates a solution while one search runs, and a snapshot per fetch
        would dominate the match cost.  Callers must not mutate the result
        nor hold it across solution mutations.
        """
        if key is None:
            return self._entries
        return self._index.get(key, _EMPTY)

    def candidates(self, key: Any) -> list[Atom]:
        """The atoms a pattern with index key ``key`` could match (in order)."""
        return [entry.atom for entry in self.candidate_entries(key)]

    def has_all_candidates(self, keys: Iterable[Any]) -> bool:
        """Whether every bucket ``keys`` names holds an atom (``None`` names none)."""
        index = self._index
        for key in keys:
            if key is not None and key not in index:
                return False
        return True

    def rules_by_priority(self) -> list[Atom]:
        """Rules in the order the engine tries them: priority desc, insertion order.

        The ordering is cached and only recomputed when a rule is added or
        removed — data mutations (the common case) leave it untouched.
        """
        if self._rules_dirty:
            bucket = self._index.get(_KIND_RULE, _EMPTY)
            # stable, reversed too: priority descending, insertion order among equals
            self._rules_cache = sorted(map(_atom, bucket), key=_priority, reverse=True)
            self._rules_dirty = False
        return self._rules_cache

    # ------------------------------------------------ HOCLflow-style helpers
    def find_tuple(self, head: str) -> TupleAtom | None:
        """Return the first tuple atom whose head symbol is ``head``.

        This is the idiomatic way to address the ``SRC``/``DST``/``SRV``/
        ``IN``/``PAR``/``RES`` fields of a task sub-solution.
        """
        bucket = self._index.get(("tuple", head))
        if bucket:
            atom = bucket[0].atom
            assert isinstance(atom, TupleAtom)
            return atom
        return None

    def replace_tuple(self, head: str, new_tuple: TupleAtom) -> None:
        """Replace the (single) tuple with head ``head`` by ``new_tuple``.

        Adds ``new_tuple`` if no such tuple exists.
        """
        existing = self.find_tuple(head)
        if existing is not None:
            self.remove_identical(existing)
        self.add(new_tuple)

    def has_symbol(self, name: str) -> bool:
        """Whether a bare :class:`~repro.hocl.atoms.Symbol` ``name`` is present."""
        return ("symbol", name) in self._index

    def remove_symbol(self, name: str) -> bool:
        """Remove one occurrence of symbol ``name`` if present."""
        bucket = self._index.get(("symbol", name))
        if not bucket:
            return False
        self._remove_entry(bucket[0])
        return True

    def subsolutions(self) -> list[Subsolution]:
        """Every top-level sub-solution atom."""
        return [entry.atom for entry in self._index.get(("kind", "solution"), ())]  # type: ignore[misc]

    def nested_solutions(self) -> list["Multiset"]:
        """Directly nested solutions in reduction order (maintained, not scanned).

        The list contains the solutions of every top-level sub-solution atom
        and of every sub-solution stored inside a tuple element, in entry
        order — exactly the depth-first descent order of the reduction
        engine.  Returns a snapshot safe to iterate across mutations.
        """
        return [solution for nested in (self._nested or {}).values() for solution in nested]

    def unsettled_solutions(self) -> Sequence["Multiset"]:
        """The part of :meth:`nested_solutions` worth a visit: what can react
        and is not proven inert.

        Only the flagged entries — a handful, whatever the size of the level
        — are looked at.  One whose solutions are all :attr:`known_inert` or
        unable to react is unflagged here and nowhere else.
        """
        flagged = self._flagged
        if not flagged:
            return ()
        items = []
        # a set never shrinks its table: the one that held the whole level at
        # the first pass is replaced by one of what is still unsettled
        unsettled = self._flagged = set()
        for entry in sorted(flagged, key=_seq) if len(flagged) > 1 else flagged:
            for solution in self._nested[entry]:  # type: ignore[index]
                if solution._inert_version != solution._version and solution.can_react:
                    items.append(solution)
                    unsettled.add(entry)
        return items

    def memory_for(self, pattern: Any, key: Any) -> "_Memory | None":
        """The plausible-candidate memory of ``pattern`` at this level.

        Only a pattern whose index key ``key`` is a whole kind bucket or
        ``None`` has one (head keys name short buckets: ``None`` is returned).
        It starts as the whole bucket; whoever sees ``quick_reject`` refute
        an entry reports it (:meth:`_Memory.refute`); the entry returns when
        something changes below it (:meth:`_touch`); a re-added atom is new.
        """
        if key is not None and key[0] != "kind":
            return None
        if self._memories is None:
            self._memories = {}
        memory = self._memories.get(pattern)
        if memory is None:
            memory = self._memories[pattern] = _Memory(key, self.live_entries(key))
        return memory

    def rules(self) -> list[Atom]:
        """Every top-level rule atom (higher-order content of the solution)."""
        return [entry.atom for entry in self._index.get(_KIND_RULE, ())]

    # ------------------------------------------------------------- structure
    def copy(self) -> "Multiset":
        """Deep copy of the multiset (sub-solutions are copied recursively)."""
        clone = Multiset()
        for entry in self._entries:
            clone.add(entry.atom.copy())
        return clone

    def union(self, other: "Multiset") -> "Multiset":
        """A new multiset with the contents of both operands."""
        result = self.copy()
        for item in other:
            result.add(item.copy())
        return result

    def size_recursive(self) -> int:
        """Total number of atoms including the contents of nested solutions.

        The paper notes that the cost of the pattern-matching process grows
        with the size of the solution; the simulation cost model uses this
        measure.
        """
        total = 0
        for entry in self._entries:
            item = entry.atom
            total += 1
            if isinstance(item, Subsolution):
                total += item.solution.size_recursive()
            elif isinstance(item, TupleAtom):
                total += sum(
                    element.solution.size_recursive()
                    for element in item.elements
                    if isinstance(element, Subsolution)
                )
        return total

    def content_hash(self) -> int:
        """Order-insensitive structural hash of the contents, cached per version."""
        if self._hash_version != self._version:
            self._content_hash = hash(tuple(sorted(hash(entry.atom) for entry in self._entries)))
            self._hash_version = self._version
        return self._content_hash

    # -------------------------------------------------------------- equality
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        if self is other:
            return True
        if len(self._entries) != len(other._entries):
            return False
        if (
            self._hash_version == self._version
            and other._hash_version == other._version
            and self._content_hash != other._content_hash
        ):
            # both hashes are fresh and differ: contents cannot be equal
            return False
        remaining = [entry.atom for entry in other._entries]
        for entry in self._entries:
            item = entry.atom
            for index, candidate in enumerate(remaining):
                if candidate == item:
                    del remaining[index]
                    break
            else:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Multiset({self.atoms()!r})"

    def __str__(self) -> str:
        return "<" + ", ".join(str(entry.atom) for entry in self._entries) + ">"
