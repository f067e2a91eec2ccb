"""Atom (molecule) model of the HOCL chemical programming language.

HOCL programs rewrite a *multiset* of *atoms*.  An atom is either

* a **scalar** — integer, float, boolean or string (:class:`IntAtom`,
  :class:`FloatAtom`, :class:`BoolAtom`, :class:`StringAtom`),
* a **symbol** — an interned bare identifier such as ``ADAPT`` or ``ERROR``
  (:class:`Symbol`),
* a **tuple** — an ordered sequence written ``A1 : A2 : ... : An`` in the
  paper (:class:`TupleAtom`), commonly used with a keyword head such as
  ``SRC : <T2, T3>``,
* a **sub-solution** — a multiset nested inside the multiset, written
  ``<A1, A2, ..., An>`` (:class:`Subsolution`),
* a **list** — the ordered container added by HOCLflow (:class:`ListAtom`),
* a **rule** — rules are first-class atoms (higher order); the rule class
  itself lives in :mod:`repro.hocl.rules` and registers as an atom by
  inheriting from :class:`Atom`.

The helper :func:`to_atom` coerces plain Python values (``int``, ``str``,
``list``, ...) into atoms so that user code rarely needs to build atom
objects explicitly.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from .errors import AtomError

__all__ = [
    "Atom",
    "ScalarAtom",
    "IntAtom",
    "FloatAtom",
    "BoolAtom",
    "StringAtom",
    "Symbol",
    "TupleAtom",
    "ListAtom",
    "Subsolution",
    "to_atom",
    "atoms_equal",
]


class Atom:
    """Abstract base class of every HOCL molecule element.

    Atoms are *value objects*: equality and hashing are structural, and the
    public API never mutates an existing atom (sub-solutions are the single
    exception — they wrap a mutable :class:`~repro.hocl.multiset.Multiset`
    because the reduction engine rewrites them in place).
    """

    __slots__ = ()

    #: Subclasses override with a short lowercase tag used by pattern type
    #: constraints (``x::int``) and by diagnostics.
    kind: str = "atom"

    #: Whether the atom's structure can change after construction.  Only
    #: sub-solutions (and containers transitively holding one) are mutable;
    #: containers of immutable atoms may cache their structural hash.
    _mutable: bool = False

    #: Cached multiset index keys (see
    #: :func:`repro.hocl.multiset.atom_index_keys`).  ``None`` means "not
    #: computed yet"; classes whose keys are per-instance carry a slot,
    #: classes whose keys are constant get a class-level tuple.
    _index_keys: Any = None

    def is_structured(self) -> bool:
        """Return ``True`` for tuples, lists and sub-solutions."""
        return False

    def copy(self) -> "Atom":
        """Return a deep copy of the atom (scalars return themselves)."""
        return self


class ScalarAtom(Atom):
    """Common base for atoms wrapping a single immutable Python value."""

    __slots__ = ("value", "_hash")
    kind = "scalar"

    def __init__(self, value: Any):
        self.value = value
        self._hash = hash((type(self).__name__, value))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self.value == other.value  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class IntAtom(ScalarAtom):
    """An integer atom, e.g. the values reduced by the ``getMax`` example."""

    __slots__ = ()
    kind = "int"

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise AtomError(f"IntAtom requires an int, got {value!r}")
        super().__init__(int(value))


class FloatAtom(ScalarAtom):
    """A floating-point atom."""

    __slots__ = ()
    kind = "float"

    def __init__(self, value: float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise AtomError(f"FloatAtom requires a number, got {value!r}")
        super().__init__(float(value))


class BoolAtom(ScalarAtom):
    """A boolean atom."""

    __slots__ = ()
    kind = "bool"

    def __init__(self, value: bool):
        if not isinstance(value, bool):
            raise AtomError(f"BoolAtom requires a bool, got {value!r}")
        super().__init__(value)


class StringAtom(ScalarAtom):
    """A string atom (quoted text in the concrete syntax)."""

    __slots__ = ()
    kind = "string"

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise AtomError(f"StringAtom requires a str, got {value!r}")
        super().__init__(value)


class Symbol(Atom):
    """A bare identifier atom such as ``ADAPT``, ``ERROR`` or a task name.

    Symbols with the same name compare equal.  HOCLflow reserved keywords
    (``SRC``, ``DST``, ``SRV``, ``IN``, ``PAR``, ``RES``, ...) are plain
    symbols; :mod:`repro.hoclflow.keywords` exposes them as constants.

    Symbols are *interned*: constructing the same name repeatedly returns the
    same object (up to a bounded table size), so the extremely frequent
    symbol-equality checks of the matcher short-circuit on identity.
    """

    __slots__ = ("name", "_hash", "_index_keys", "_head_keys")
    kind = "symbol"

    #: Interning table; bounded so pathological name churn cannot leak.
    _interned: dict[str, "Symbol"] = {}
    _INTERN_LIMIT = 65536

    def __new__(cls, name: str) -> "Symbol":
        if cls is Symbol and isinstance(name, str):
            cached = Symbol._interned.get(name)
            if cached is not None:
                return cached
        return super().__new__(cls)

    def __init__(self, name: str):
        if isinstance(name, str) and getattr(self, "name", None) == name:
            return  # an interned instance handed back by __new__: already set up
        if not isinstance(name, str) or not name:
            raise AtomError(f"Symbol requires a non-empty string name, got {name!r}")
        self.name = name
        self._hash = hash(("Symbol", name))
        self._index_keys = self._head_keys = None  # its own keys; those of the tuples it heads
        if type(self) is Symbol and len(Symbol._interned) < Symbol._INTERN_LIMIT:
            Symbol._interned.setdefault(name, self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Symbol) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Interning makes the default slots pickling unusable (`__new__`
        # requires the name); reconstructing through the constructor both
        # pickles cleanly and re-interns on load — needed by the opt-in
        # process-pool reduction path (`repro.hocl.parallel`).
        return (type(self), (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Symbol({self.name!r})"

    def __str__(self) -> str:
        return self.name


class TupleAtom(Atom):
    """An ordered tuple of atoms, written ``A1 : A2 : ... : An``.

    Tuples are the workhorse of the HOCLflow encoding: ``SRC : <T1>``,
    ``T2 : <...>``, ``MVSRC : T4 : T2 : T2p`` are all tuples.  The first
    element is conventionally called the *head*; :meth:`head_symbol` returns
    its name when it is a :class:`Symbol`, which the workflow rules use to
    address fields of a task sub-solution.
    """

    __slots__ = ("elements", "_hash", "_mutable", "_index_keys")
    kind = "tuple"

    def __init__(self, elements: Sequence[Any]):
        items = tuple(to_atom(e) for e in elements)
        if len(items) < 1:
            raise AtomError("TupleAtom requires at least one element")
        self.elements = items
        self._hash = None
        self._mutable = any(e._mutable for e in items)
        self._index_keys = None

    # -- structure ---------------------------------------------------------
    def is_structured(self) -> bool:
        return True

    @property
    def head(self) -> Atom:
        """The first element of the tuple."""
        return self.elements[0]

    def head_symbol(self) -> str | None:
        """Return the head's name when the head is a :class:`Symbol`."""
        head = self.elements[0]
        return head.name if isinstance(head, Symbol) else None

    @property
    def rest(self) -> tuple[Atom, ...]:
        """All elements after the head."""
        return self.elements[1:]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.elements)

    def __getitem__(self, index: int) -> Atom:
        return self.elements[index]

    def copy(self) -> "TupleAtom":
        return TupleAtom([e.copy() for e in self.elements])

    # -- equality ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TupleAtom):
            return False
        if (
            self._hash is not None
            and other._hash is not None
            and self._hash != other._hash
        ):
            return False
        return self.elements == other.elements

    def __hash__(self) -> int:
        # The structural hash is cached for immutable tuples (the common
        # case); tuples holding a sub-solution recompute it, since their
        # contents may be rewritten in place.
        cached = self._hash
        if cached is not None:
            return cached
        value = hash(("TupleAtom", self.elements))
        if not self._mutable:
            self._hash = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "TupleAtom(" + ", ".join(repr(e) for e in self.elements) + ")"

    def __str__(self) -> str:
        return ":".join(str(e) for e in self.elements)


class ListAtom(Atom):
    """The ordered list container added by HOCLflow.

    Lists carry service parameters (the ``PAR`` atom holds
    ``list(...)`` of the task inputs) and service results.  Unlike tuples
    they may be empty and are built by the ``list()`` external function.
    """

    __slots__ = ("items", "_hash", "_mutable")
    kind = "list"

    def __init__(self, items: Iterable[Any] = ()):  # noqa: B008 - immutable default
        self.items = tuple(to_atom(i) for i in items)
        self._hash = None
        self._mutable = any(i._mutable for i in self.items)

    def is_structured(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Atom:
        return self.items[index]

    def append(self, item: Any) -> "ListAtom":
        """Return a new list with ``item`` appended (lists are immutable)."""
        return ListAtom(self.items + (to_atom(item),))

    def extend(self, items: Iterable[Any]) -> "ListAtom":
        """Return a new list with ``items`` appended."""
        return ListAtom(self.items + tuple(to_atom(i) for i in items))

    def to_python(self) -> list[Any]:
        """Convert back to a plain Python list of unwrapped values."""
        return [from_atom(i) for i in self.items]

    def copy(self) -> "ListAtom":
        return ListAtom([i.copy() for i in self.items])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ListAtom):
            return False
        if (
            self._hash is not None
            and other._hash is not None
            and self._hash != other._hash
        ):
            return False
        return self.items == other.items

    def __hash__(self) -> int:
        cached = self._hash
        if cached is not None:
            return cached
        value = hash(("ListAtom", self.items))
        if not self._mutable:
            self._hash = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ListAtom({list(self.items)!r})"

    def __str__(self) -> str:
        return "[" + ", ".join(str(i) for i in self.items) + "]"


class Subsolution(Atom):
    """A multiset nested inside a multiset, written ``<A1, ..., An>``.

    A sub-solution wraps a :class:`~repro.hocl.multiset.Multiset`.  Under
    HOCL semantics, an enclosing rule may only *match* a sub-solution once
    that sub-solution is inert (no inner rule can fire); the reduction engine
    enforces this.
    """

    __slots__ = ("solution",)
    kind = "solution"
    _mutable = True

    def __init__(self, contents: Any = ()):  # Multiset | Iterable
        from .multiset import Multiset  # local import to avoid a cycle

        if isinstance(contents, Multiset):
            self.solution = contents
        else:
            self.solution = Multiset(contents)

    def is_structured(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self.solution)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.solution)

    def copy(self) -> "Subsolution":
        return Subsolution(self.solution.copy())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Subsolution) and self.solution == other.solution

    def __hash__(self) -> int:
        # Multisets are unordered: hash the order-insensitive content hash,
        # which the multiset caches per version.
        return hash(("Subsolution", self.solution.content_hash()))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Subsolution({list(self.solution)!r})"

    def __str__(self) -> str:
        return "<" + ", ".join(str(a) for a in self.solution) + ">"


def to_atom(value: Any) -> Atom:
    """Coerce a Python value into an :class:`Atom`.

    ``Atom`` instances pass through unchanged.  ``bool``/``int``/``float``/
    ``str`` map to the corresponding scalar atoms, ``list``/``tuple`` map to
    :class:`ListAtom`, and ``dict`` is rejected (there is no mapping atom in
    HOCL).
    """
    if isinstance(value, Atom):
        return value
    if isinstance(value, bool):
        return BoolAtom(value)
    if isinstance(value, int):
        return IntAtom(value)
    if isinstance(value, float):
        return FloatAtom(value)
    if isinstance(value, str):
        return StringAtom(value)
    if isinstance(value, (list, tuple)):
        return ListAtom(value)
    raise AtomError(f"cannot represent {value!r} ({type(value).__name__}) as an HOCL atom")


def from_atom(atom: Atom) -> Any:
    """Unwrap an atom into the closest plain Python value.

    Scalars unwrap to their value, symbols to their name, lists to Python
    lists, tuples to Python tuples and sub-solutions to lists of unwrapped
    contents.  Rules unwrap to themselves.
    """
    if isinstance(atom, ScalarAtom):
        return atom.value
    if isinstance(atom, Symbol):
        return atom.name
    if isinstance(atom, ListAtom):
        return [from_atom(i) for i in atom.items]
    if isinstance(atom, TupleAtom):
        return tuple(from_atom(e) for e in atom.elements)
    if isinstance(atom, Subsolution):
        return [from_atom(a) for a in atom.solution]
    return atom


def atoms_equal(left: Any, right: Any) -> bool:
    """Structural equality between two values after coercion to atoms."""
    return to_atom(left) == to_atom(right)
