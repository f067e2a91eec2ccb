"""Pattern language used on the left-hand side of HOCL rules.

A rule such as (Fig. 4 of the paper)::

    gw_setup = replace-one SRC : <>, IN : <w>
               by SRC : <>, PAR : list(w)

is built from *patterns* (its left-hand side) and *templates* (its right-hand
side, see :mod:`repro.hocl.templates`).  Patterns match single atoms and
produce *bindings* — a mapping from variable names to atoms (or, for omega
variables, to lists of atoms).

Pattern classes
---------------
``Var(name, kind=None)``
    Matches any single atom, optionally constrained to an atom ``kind``
    (``"int"``, ``"string"``, ``"solution"``, ...), and binds it.
``Omega(name)``
    The ω of the paper: captures *all remaining* atoms of the enclosing
    solution or tuple pattern.  Only valid as the ``rest`` of a
    :class:`SolutionPattern` / trailing element of a :class:`TuplePattern`.
``Literal(value)``
    Matches an atom structurally equal to ``value``.
``SymbolPattern(name)``
    Shorthand for ``Literal(Symbol(name))``.
``TuplePattern(*elements)``
    Matches a :class:`~repro.hocl.atoms.TupleAtom` element-wise.
``SolutionPattern(*elements, rest=None)``
    Matches a :class:`~repro.hocl.atoms.Subsolution` whose contents contain
    one distinct atom per element pattern; ``rest`` (an :class:`Omega`)
    captures whatever is left (possibly nothing).
``RulePattern(name=None)``
    Matches a rule atom (higher order), optionally by name — this is what
    lets the ``clean`` rule of the getMax example remove ``max``.

Bindings are a :class:`BindingView`, equal to the plain dictionary mapping
variable names to :class:`~repro.hocl.atoms.Atom` (or ``list[Atom]`` for
omegas).  A variable appearing several times must bind structurally equal atoms.

Nothing interprets a pattern tree at match time, and nothing chains closures
over it either: :meth:`Pattern.emit` writes, once, the Python lines that hold
one atom (a local of the generated function) to the pattern — a failed test is
a ``continue`` of the loop it stands in, a bucket to try is one more nested
``for``, a variable is a local.  :class:`Source` collects the lines of a whole
left-hand side and :class:`repro.hocl.deltas.Reaction` turns them, with the
rule's fire, into one flat function: a search allocates no generator, closure
or register list, and the generated function holds no state, so rules, agents
and threads share it.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterable

from .atoms import Atom, Symbol, from_atom, to_atom
from .errors import PatternError
from .multiset import Multiset, atom_index_keys

__all__ = [
    "Bindings",
    "BindingView",
    "Pattern",
    "Var",
    "Omega",
    "Literal",
    "SymbolPattern",
    "TuplePattern",
    "SolutionPattern",
    "RulePattern",
    "as_pattern",
    "solution_patterns",
]

#: what the local of a variable holds until something is bound to it
UNBOUND: Any = object()


class _Rest:
    """A pending ω: the atoms of ``solution`` but those of the ``used`` entries."""

    __slots__ = ("solution", "used", "version")

    def __init__(self, solution: Multiset, used: list[Any]):
        self.solution = solution
        self.used = used
        self.version = solution._version

    def read(self, name: str) -> list[Atom]:
        if self.solution._version != self.version:
            raise PatternError(f"omega {name!r} read after the solution it is the remainder of changed")
        return self.solution.remainder(self.used)


def same_atoms(bound: Any, rest: list[Atom]) -> bool:
    """Whether ``bound`` is a list of the atoms of ``rest``, a solution's ω, each
    as often and in any order: a multiset's atoms have no order to compare."""
    if not isinstance(bound, list) or len(bound) != len(rest):
        return False
    unmatched = list(rest)
    for atom in bound:
        for at, other in enumerate(unmatched):
            if other == atom:
                del unmatched[at]
                break
        else:
            return False
    return True


def value_of(bound: Any) -> Any:
    """The plain Python value of what a variable is bound to: an atom's, or each of a list's."""
    return [from_atom(item) for item in bound] if isinstance(bound, list) else from_atom(bound)


class BindingView(Mapping[str, Any]):
    """The variable environment of a match: name -> atom, or name -> list of
    atoms for an omega, with the accessors an effect's arguments and an
    external read (``b.value("x")``, the plain value).

    An omega's list is copied out of its solution at the first read of the
    name and kept: one nobody reads costs nothing.  A first read after that
    solution changed raises :class:`~repro.hocl.errors.PatternError` (the
    engine reads what outlives the reaction before it rewrites).  A ``dict`` —
    the one a generated search just built — is wrapped as it is, not copied.
    """

    __slots__ = ("_data",)

    def __init__(self, data: "Mapping[str, Any] | Iterable[tuple[str, Any]]" = ()):
        self._data: dict[str, Any] = data if data.__class__ is dict else dict(data)  # type: ignore[assignment]

    def __getitem__(self, name: str) -> Any:
        bound = self._data[name]
        if bound.__class__ is _Rest:
            bound = self._data[name] = bound.read(name)
        return bound

    def __contains__(self, name: object) -> bool:
        return name in self._data

    def __iter__(self) -> Any:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def value(self, name: str) -> Any:
        """Unwrapped Python value of variable ``name``."""
        return value_of(self[name])

    def atom(self, name: str) -> Any:
        """Raw atom (or list of atoms) bound to ``name``."""
        return self[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BindingView({dict(self)!r})"


Bindings = BindingView  #: A variable environment produced by matching.


class Source:
    """The lines of one left-hand side's search, as its patterns write them.

    :meth:`Pattern.emit` appends what holds one atom — a local — to the pattern.
    Whatever is not text (symbols, index keys, the pattern objects a memory
    is kept for) is a constant ``cN`` the generated function's factory takes:
    left-hand sides of one shape write one text, whatever they name.  A
    variable is the local :attr:`bound` maps it to; one not bound yet may
    still be given, in ``initial_bindings``, read once into a local of
    :attr:`initial`.  :attr:`sites` are the locals where a match bound, in the
    order :func:`solution_patterns` lists them.

    A solution pattern's ω is bound without copying it: its local holds
    ``U`` (or what was given) and :attr:`lazy` where its list is, copied by
    :meth:`read` where something compares it, or left pending (a ``Rest``).
    """

    #: CPython compiles 20 statically nested blocks at most: deeper loops go on in a nested function
    BLOCKS = 18

    def __init__(self, depth: int, blocks: int = 0, shared: Iterable[str] = ()):
        self.lines: list[str] = []
        self.lazy: dict[str, tuple[str, str]] = {}  # omega -> its solution and the entries not in it, while its local holds U
        self.depth = depth
        self.blocks = blocks
        self.shared = ", ".join(shared)  # the locals a nested function rebinds
        self.nested: list[int] = []  # the depth every open nested function started at
        self.constants: list[Any] = []
        self.count = 0
        self.bound: dict[str, str] = {}
        self.initial: dict[str, str] = {}  # variable -> the local read from ``initial_bindings``, once per search
        self.idents: dict[str, str] = {}
        self.sites: list[str] = []

    def site(self, solution: str, entries: list[str]) -> None:
        """Record the solution a solution pattern matched and the entry each of
        its elements took: the next sites of the match."""
        self.sites += [solution, *entries]

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def const(self, value: Any) -> str:
        """The name ``value`` goes by in the text."""
        self.constants.append(value)
        return f"c{len(self.constants) - 1}"

    def bucket(self, solution: str, key: Any) -> str:
        """An expression for the entries of ``solution`` under index key ``key``:
        :meth:`~repro.hocl.multiset.Multiset.live_entries` without the call."""
        return f"{solution}._entries" if key is None else f"{solution}._index.get({self.const(key)}, EMPTY)"

    def local(self, stem: str) -> str:
        """A local nothing else uses."""
        self.count += 1
        return f"{stem}{self.count}"

    def loop(self, header: str) -> None:
        """Open one more nested ``for``: every line from here on is its body."""
        if self.depth > 90:
            raise PatternError("left-hand side too deep to generate (Python indents 100 levels at most)")
        if self.blocks == self.BLOCKS:
            self.nested.append(self.depth)
            self.line("def deeper():")
            self.depth += 1
            if self.shared:
                self.line(f"nonlocal {self.shared}")
            self.blocks = 0
        self.line(header)
        self.depth += 1
        self.blocks += 1

    def close(self) -> None:
        """After the innermost line: leave the nested functions, innermost first;
        what one returns, the function it is nested in returns."""
        while self.nested:
            self.depth = self.nested.pop()
            self.line("if (done := deeper()) is not None: return done")

    def _ident(self, name: str) -> str:
        """What the locals of variable ``name`` end in (a name need not be an identifier)."""
        if name not in self.idents:
            self.idents[name] = f"_{name}" if name.isascii() and name.isidentifier() else f"_{len(self.idents)}"
        return self.idents[name]

    def held(self, name: str) -> str:
        """An expression for what variable ``name`` is bound to right now, if anything (else ``U``)."""
        if name in self.bound:
            return self.bound[name]
        return self.initial.setdefault(name, "i" + self._ident(name))

    def bind(self, name: str, value: str) -> None:
        """Bind variable ``name`` to ``value`` (a local, or an expression that
        builds a new list), or hold it to what it is bound to already."""
        # a list (an omega) never equals an atom, whichever came first
        same = "{0} is {1} or {0} == {1}" if value.isidentifier() else "{0} == {1}"
        if name in self.lazy:  # a solution's remainder, unless given: that compares in no order
            held, (solution, used) = self.bound[name], self.lazy[name]
            self.line(f"if not ({held} == {value} if {held} is not U else same_atoms({value}, {solution}.remainder({used}))): continue")
            return
        if name in self.bound:
            self.line(f"if not ({same.format(self.read(name), value)}): continue")
            return
        before = self.held(name)
        held = self.bound[name] = "v" + self._ident(name)
        self.line(f"{held} = {before}")
        self.line(f"if {held} is U: {held} = {value}")
        self.line(f"elif not ({same.format(held, value)}): continue")

    def remainder(self, name: str, solution: str, taken: list[str]) -> None:
        """Bind omega ``name`` to the atoms of ``solution`` but those of the
        ``taken`` entries, not copied yet; what it is held to compares with them
        in no order."""
        used = f"[{', '.join(taken)}]"
        if name in self.bound:
            self.line(f"if not same_atoms({self.read(name)}, {solution}.remainder({used})): continue")
            return
        before = self.held(name)
        held = self.bound[name] = "v" + self._ident(name)
        self.lazy[name] = solution, used
        self.line(f"{held} = {before}")
        self.line(f"if {held} is not U and not same_atoms({held}, {solution}.remainder({used})): continue")

    def read(self, name: str, pending: bool = False) -> str:
        """An expression for what variable ``name`` is bound to right now, an ω
        not copied yet copied — or, ``pending``, a ``Rest`` that copies it when read."""
        held, rest = self.held(name), self.lazy.get(name)
        if rest is None:
            return held
        solution, used = rest
        return f"({held} if {held} is not U else {f'Rest({solution}, {used})' if pending else f'{solution}.remainder({used})'})"


class Pattern:
    """Abstract base class of all patterns."""

    __slots__ = ()

    def emit(self, out: Source, atom: str) -> None:  # pragma: no cover - abstract
        """Write the lines that hold ``atom`` (a local of the search) to this
        pattern: a failed test is a ``continue``; a class that defines none is
        refused when a rule is built on it."""
        raise NotImplementedError

    def reject(self, out: Source, atom: str) -> str:
        """The cheap, binding-free structural pre-check of ``atom`` (an
        expression of the search), as one expression.

        It is true only when the pattern provably cannot match the atom under
        *any* binding environment — conservative, since it cannot see variable
        constraints; the default rejects nothing.  A plausible-candidate
        memory (:meth:`~repro.hocl.multiset.Multiset.memory_for`) keeps the
        verdict: a refuted entry is not offered again until it changes.
        """
        return "False"

    def bound_names(self) -> set[str]:
        """Variable names a successful match of this pattern binds: every
        variable it names, omegas included (HOCL patterns have no free variables)."""
        return set()

    def omega_names(self) -> set[str]:
        """Those of :meth:`bound_names` bound to *lists* of atoms (omegas),
        which products splice (``Splice``) rather than reference (``Ref``)."""
        return set()

    def index_key(self) -> Any | None:
        """The multiset index bucket this pattern draws candidates from.

        ``None`` means the pattern is unconstrained (any atom could match).
        A non-``None`` key is a *guarantee*: every atom the pattern can
        match carries that key (see
        :func:`~repro.hocl.multiset.atom_index_keys`), so restricting the
        search to the bucket never loses a match — and, because buckets
        preserve insertion order, never reorders the matches found.
        """
        return None

    def narrowing_variable(self) -> str | None:
        """The variable whose binding sharpens a broad :meth:`index_key`, if any.

        A ``Tj : <...>`` tuple pattern whose head variable an earlier pattern
        bound to a symbol can only match in that symbol's ``("tuple", name)``
        bucket: a scan of the level becomes one bucket lookup, under the same
        guarantee as :meth:`index_key`, so in the same enumeration order.
        """
        return None


class Var(Pattern):
    """Match any single atom and bind it to ``name``.

    Parameters
    ----------
    name:
        Variable name to bind.
    kind:
        Optional atom-kind constraint, compared against ``Atom.kind``
        (``"int"``, ``"float"``, ``"string"``, ``"symbol"``, ``"tuple"``,
        ``"list"``, ``"solution"``, ``"rule"``).  ``"number"`` accepts both
        ints and floats.
    """

    __slots__ = ("name", "kind", "kinds")

    def __init__(self, name: str, kind: str | None = None):
        if not name:
            raise PatternError("Var requires a non-empty name")
        self.name = name
        self.kind = kind
        #: the ``Atom.kind`` values accepted (``None``: any)
        self.kinds = None if kind is None else ("int", "float") if kind == "number" else (kind,)

    def emit(self, out: Source, atom: str) -> None:
        if self.kinds is not None:
            out.line(f"if {self.reject(out, atom)}: continue")
        out.bind(self.name, atom)

    def reject(self, out: Source, atom: str) -> str:
        kinds = self.kinds
        if kinds is None:
            return "False"
        return f"{atom}.kind {f'!= {kinds[0]!r}' if len(kinds) == 1 else f'not in {kinds!r}'}"

    def bound_names(self) -> set[str]:
        return {self.name}

    def index_key(self) -> Any | None:
        # "number" spans the int and float buckets; fall back to a full scan.
        if self.kind is None or self.kind == "number":
            return None
        return ("kind", self.kind)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Var({self.name!r}{', ' + repr(self.kind) if self.kind else ''})"


class Omega(Pattern):
    """The ω rest-capture variable.

    An omega does not match a single atom; it is consumed structurally by the
    enclosing :class:`SolutionPattern` or :class:`TuplePattern`, which binds
    it to the list of atoms not matched by the other element patterns.
    """

    __slots__ = ("name",)

    def __init__(self, name: str = "omega"):
        if not name:
            raise PatternError("Omega requires a non-empty name")
        self.name = name

    def bound_names(self) -> set[str]:
        return {self.name}

    def omega_names(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Omega({self.name!r})"


class Literal(Pattern):
    """Match an atom structurally equal to a fixed value."""

    __slots__ = ("atom",)

    def __init__(self, value: Any):
        self.atom = to_atom(value)

    def emit(self, out: Source, atom: str) -> None:
        out.line(f"if {self.reject(out, atom)}: continue")

    def reject(self, out: Source, atom: str) -> str:
        own = out.const(self.atom)  # symbols are interned
        return f"{atom} is not {own} and {atom} != {own}"

    def index_key(self) -> Any | None:
        # Structural equality implies identical index keys, so the literal's
        # own most-specific bucket contains every atom it can match.
        return atom_index_keys(self.atom)[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Literal({self.atom!r})"


class SymbolPattern(Literal):
    """Match the bare symbol ``name`` (e.g. the ``ADAPT`` marker atom)."""

    __slots__ = ()

    def __init__(self, name: str):
        super().__init__(Symbol(name))


class TuplePattern(Pattern):
    """Match a :class:`~repro.hocl.atoms.TupleAtom` element by element.

    Element patterns are matched positionally.  A trailing :class:`Omega`
    captures any remaining elements (as a list), allowing tuples of unknown
    arity such as ``MVSRC : t : old : new`` to be matched partially.
    """

    __slots__ = ("elements", "rest")

    def __init__(self, *elements: Any, rest: Omega | None = None):
        if not elements and rest is None:
            raise PatternError("TuplePattern requires at least one element pattern")
        self.elements = tuple(as_pattern(e) for e in elements)
        if any(isinstance(e, Omega) for e in self.elements):
            raise PatternError("use the rest= parameter for omega capture in tuples")
        self.rest = rest

    def emit(self, out: Source, atom: str) -> None:
        items, count = out.local("t"), len(self.elements)
        out.line(f"if not isinstance({atom}, TupleAtom): continue")
        out.line(f"{items} = {atom}.elements")
        if count or self.rest is None:
            out.line(f"if len({items}) {'!=' if self.rest is None else '<'} {count}: continue")
        for index, element in enumerate(self.elements):
            item = out.local("a")
            out.line(f"{item} = {items}[{index}]")
            element.emit(out, item)
        if self.rest is not None:
            out.bind(self.rest.name, f"list({items}[{count}:])")

    def reject(self, out: Source, atom: str) -> str:
        items, count = out.local("t"), len(self.elements)
        tests = [f"not isinstance({atom}, TupleAtom)", f"len({items} := {atom}.elements) {'!=' if self.rest is None else '<'} {count}"]
        tests += [element.reject(out, f"{items}[{index}]") for index, element in enumerate(self.elements)]
        return _any(tests)

    def bound_names(self) -> set[str]:
        return _inner(self, "bound_names")

    def omega_names(self) -> set[str]:
        return _inner(self, "omega_names")

    def index_key(self) -> Any | None:
        # ``HEAD : ...`` patterns (the HOCLflow idiom) restrict the search to
        # the bucket of tuples with that head symbol.
        if self.elements:
            first = self.elements[0]
            if isinstance(first, Literal) and isinstance(first.atom, Symbol):
                return ("tuple", first.atom.name)
        return ("kind", "tuple")

    def narrowing_variable(self) -> str | None:
        # A variable head already bound to a symbol (``gw_pass`` binds Tj
        # inside Ti's DST before trying Tj's own tuple) pins the search to
        # that symbol's tuple bucket.
        if self.elements and isinstance(self.elements[0], Var):
            return self.elements[0].name
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"TuplePattern({', '.join(repr(e) for e in self.elements)}, rest={self.rest!r})"


class SolutionPattern(Pattern):
    """Match a :class:`~repro.hocl.atoms.Subsolution`.

    Each element pattern must match a *distinct* atom of the sub-solution.
    ``rest`` (an :class:`Omega`) binds the list of unmatched atoms; when
    ``rest`` is ``None`` the sub-solution must contain exactly one atom per
    element pattern (so ``SolutionPattern()`` matches only the empty
    solution ``<>``).
    """

    __slots__ = ("elements", "rest", "_element_keys")

    def __init__(self, *elements: Any, rest: Omega | None = None):
        patterns = []
        rest_from_elements: Omega | None = None
        for element in elements:
            converted = as_pattern(element)
            if isinstance(converted, Omega):
                if rest_from_elements is not None:
                    raise PatternError("a solution pattern may contain at most one omega")
                rest_from_elements = converted
            else:
                patterns.append(converted)
        if rest_from_elements is not None and rest is not None:
            raise PatternError("omega supplied both positionally and via rest=")
        self.elements = tuple(patterns)
        self.rest = rest if rest is not None else rest_from_elements
        #: element index keys, precomputed once
        self._element_keys = tuple(e.index_key() for e in self.elements)

    def emit(self, out: Source, atom: str) -> None:
        held = out.local("s")  # the matched solution; the entry each element takes
        taken = [out.local("e") for _ in self.elements]
        out.site(held, taken)
        out.line(f"if not isinstance({atom}, Subsolution): continue")
        out.line(f"{held} = {atom}.solution")
        if self.elements or self.rest is None:
            out.line(f"if len({held}._entries) {'!=' if self.rest is None else '<'} {len(self.elements)}: continue")
        for index, (element, key, entry) in enumerate(zip(self.elements, self._element_keys, taken)):
            # every entry of the element's bucket no earlier element took — in the
            # sub-solution's own index, a subsequence of insertion order like the
            # top-level search's, read live (nothing mutates)
            item = out.local("a")
            out.loop(f"for {entry} in {out.bucket(held, key)}:")
            if index:  # `_Entry` has no `__eq__`: identity is all there is to test
                out.line(f"if {' or '.join(f'{entry} is {other}' for other in taken[:index])}: continue")
            out.line(f"{item} = {entry}.atom")
            element.emit(out, item)
        if self.rest is not None:
            out.remainder(self.rest.name, held, taken)

    def reject(self, out: Source, atom: str) -> str:
        held, count = out.local("s"), len(self.elements)
        tests = [f"not isinstance({atom}, Subsolution)", f"len(({held} := {atom}.solution)._entries) {'!=' if self.rest is None else '<'} {count}"]
        for element, key in zip(self.elements, self._element_keys):
            entries = out.local("k")
            tests.append(f"not ({entries} := {out.bucket(held, key)})")
            # a single candidate in the bucket must itself survive the check
            if (single := element.reject(out, f"{entries}[0].atom")) != "False":
                tests.append(f"len({entries}) == 1 and ({single})")
        return _any(tests)

    def bound_names(self) -> set[str]:
        return _inner(self, "bound_names")

    def omega_names(self) -> set[str]:
        return _inner(self, "omega_names")

    def index_key(self) -> Any | None:
        return ("kind", "solution")

    def __repr__(self) -> str:  # pragma: no cover
        return f"SolutionPattern({', '.join(repr(e) for e in self.elements)}, rest={self.rest!r})"


class RulePattern(Pattern):
    """Match a rule atom, optionally by rule name, and bind it.

    This provides the higher-order feature of HOCL: the ``clean`` rule of the
    getMax example removes the ``max`` rule by matching it.
    """

    __slots__ = ("name", "bind_as")

    def __init__(self, name: str | None = None, bind_as: str | None = None):
        self.name = name
        self.bind_as = bind_as

    def emit(self, out: Source, atom: str) -> None:
        out.line(f"if {self.reject(out, atom)}: continue")
        if self.bind_as is not None:
            out.bind(self.bind_as, atom)

    def reject(self, out: Source, atom: str) -> str:
        return f"{atom}.kind != 'rule'" + ("" if self.name is None else f" or {atom}.name != {out.const(self.name)}")

    def bound_names(self) -> set[str]:
        return {self.bind_as} if self.bind_as else set()

    def index_key(self) -> Any | None:
        if self.name is not None:
            return ("rule", self.name)
        return ("kind", "rule")

    def __repr__(self) -> str:  # pragma: no cover
        return f"RulePattern(name={self.name!r}, bind_as={self.bind_as!r})"


def _inner(pattern: "TuplePattern | SolutionPattern", names: str) -> set[str]:
    """The union of ``names()`` over the element patterns and the ω of ``pattern``."""
    found: set[str] = set()
    for inner in (*pattern.elements, *([pattern.rest] if pattern.rest is not None else [])):
        found |= getattr(inner, names)()
    return found


def _any(tests: list[str]) -> str:
    """One expression true when any of ``tests`` is (those that are never true left out)."""
    return " or ".join(f"({test})" for test in tests if test != "False")


def solution_patterns(pattern: Pattern) -> list[SolutionPattern]:
    """Every :class:`SolutionPattern` in ``pattern``, each before its elements,
    elements in order: the order a search records its sites in (after the
    entry of each top-level pattern, per solution pattern the solution it
    matched, then the entry each of its elements took), and the one
    :func:`~repro.hocl.deltas.derive_delta` numbers them by."""
    found = [pattern] if isinstance(pattern, SolutionPattern) else []
    if isinstance(pattern, (TuplePattern, SolutionPattern)):
        for element in pattern.elements:
            found += solution_patterns(element)
    return found


def as_pattern(value: Any) -> Pattern:
    """Coerce ``value`` into a :class:`Pattern`.

    Existing patterns pass through; any other value becomes a
    :class:`Literal` matching that exact atom.  Strings are treated as
    literal string atoms — use :class:`Var`/:class:`SymbolPattern`
    explicitly when a variable or symbol is intended.
    """
    if isinstance(value, Pattern):
        return value
    return Literal(value)
