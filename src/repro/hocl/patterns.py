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

Nothing interprets a pattern tree at match time: :meth:`Pattern.compile` turns
a pattern, once, into a closure ``match(atom, registers) -> bool`` that runs a
fixed continuation for every way the atom matches.  The registers (one list
per search, laid out by :class:`Layout`) hold a slot per variable — bound,
continued, unbound — and the scratch slots of the pattern nodes: a search
allocates no generator, closure or dictionary, and the compiled form holds no
state, so rules, agents and threads share it.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Iterable

from .atoms import Atom, Subsolution, Symbol, TupleAtom, from_atom, to_atom
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
]

Registers = list[Any]
#: What runs once a pattern has matched; ``True`` stops the whole search.
Continuation = Callable[[Registers], bool]
#: A compiled pattern: runs the continuation for every way ``atom`` matches and
#: leaves the registers as found; ``True`` as soon as a continuation said so.
Matcher = Callable[[Any, Registers], bool]
#: what a register holds until something is bound or stored there
UNBOUND: Any = object()


class _Rest:
    """A pending ω: the atoms of ``solution`` but those of the ``used`` entries."""

    __slots__ = ("solution", "used", "version")

    def __init__(self, solution: Multiset, used: list[Any]):
        self.solution = solution
        self.used = used
        self.version = solution.version

    def read(self, name: str) -> list[Atom]:
        if self.solution.version != self.version:
            raise PatternError(f"omega {name!r} read after the solution it is the remainder of changed")
        used = self.used  # `_Entry` has no `__eq__`: `in` is an identity scan
        return [entry.atom for entry in self.solution.live_entries() if entry not in used]

    def __eq__(self, other: object) -> bool:  # an ω name bound twice: compare the lists
        return self.read("ω") == (other.read("ω") if isinstance(other, _Rest) else other)


class BindingView(Mapping[str, Any]):
    """The variable environment of a match: name -> atom, or name -> list of
    atoms for an omega, with the accessors reaction conditions want
    (``lambda b: b.value("x") >= b.value("y")``).

    An omega's list is copied out of its solution at the first read of the
    name and kept: one nobody reads costs nothing.  A first read after that
    solution changed raises :class:`~repro.hocl.errors.PatternError` (the
    engine reads what outlives the reaction before it rewrites).
    """

    __slots__ = ("_data",)

    def __init__(self, data: "Mapping[str, Any] | Iterable[tuple[str, Any]]" = ()):
        self._data: dict[str, Any] = dict(data)

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
        bound = self[name]
        if isinstance(bound, list):
            return [from_atom(item) for item in bound]
        return from_atom(bound)

    def atom(self, name: str) -> Any:
        """Raw atom (or list of atoms) bound to ``name``."""
        return self[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BindingView({dict(self)!r})"


Bindings = BindingView  #: A variable environment produced by matching.


class Layout:
    """The registers of one compiled search: a slot per variable name and the
    scratch slots of the pattern nodes, handed out as the patterns compile;
    slot ``extra`` holds the bindings the search started from."""

    def __init__(self, reserved: int = 0):
        self.slots: dict[str, int] = {}
        self.extra = reserved
        self.size = reserved + 1

    def slot(self, name: str) -> int:
        """The register of variable ``name``."""
        if name not in self.slots:
            self.slots[name] = self.scratch()
        return self.slots[name]

    def scratch(self, count: int = 1) -> int:
        """``count`` fresh consecutive registers; the index of the first."""
        self.size += count
        return self.size - count

    def registers(self, bindings: "Mapping[str, Any] | None" = None) -> Registers:
        """Fresh registers (once everything is compiled), holding ``bindings``."""
        registers = [UNBOUND] * self.size
        self.store(registers, bindings or {})
        return registers

    def store(self, registers: Registers, bindings: Mapping[str, Any]) -> None:
        """Bind every pair of ``bindings``: all are kept in ``extra``, a variable's in its register too."""
        registers[self.extra] = bindings
        for name in bindings:
            if name in self.slots:
                registers[self.slots[name]] = bindings[name]

    def view(self, registers: Registers) -> BindingView:
        """What the registers bind right now."""
        bound = {name: registers[slot] for name, slot in self.slots.items() if registers[slot] is not UNBOUND}
        return BindingView({**registers[self.extra], **bound})


def _binder(slot: int, then: Continuation, kinds: tuple[str, ...] | None = None) -> Matcher:
    """Bind register ``slot`` (or hold it to what it is bound to), continue, unbind."""

    def bind(value: Any, registers: Registers) -> bool:
        if kinds is not None and value.kind not in kinds:
            return False
        bound = registers[slot]
        if bound is UNBOUND:
            registers[slot] = value
            if then(registers):
                return True
            registers[slot] = UNBOUND
            return False
        # a list (an omega) never equals an atom, whichever came first
        return (bound is value or bound == value) and then(registers)

    return bind


class Pattern:
    """Abstract base class of all patterns."""

    __slots__ = ()

    def compile(self, layout: Layout, then: Continuation) -> Matcher:
        """This pattern as a closure over ``layout``'s registers, continued by
        ``then``.  The default serves a subclass the compiler does not know,
        through its own :meth:`match`: it gets the registers as a dictionary
        and every extension it returns goes back into them."""
        if type(self).match is Pattern.match:
            raise NotImplementedError(f"{type(self).__name__} defines neither compile() nor match()")

        def match(atom: Any, registers: Registers) -> bool:
            saved = registers[:]
            for extended in self.match(atom, dict(layout.view(registers))):
                layout.store(registers, extended)
                if then(registers):
                    return True
                registers[:] = saved
            return False

        return match

    def match(self, atom: Atom, bindings: Mapping[str, Any]) -> Iterable[Mapping[str, Any]]:
        """Every extension of ``bindings`` under which ``atom`` matches, in order
        (compiles per call: searches run on what a rule compiled once)."""
        layout = Layout()
        found: list[BindingView] = []

        def collect(registers: Registers) -> bool:
            found.append(layout.view(registers))
            return False

        self.compile(layout, collect)(atom, layout.registers(bindings))
        return found

    def quick_reject(self, atom: Atom) -> bool:
        """Cheap, binding-free structural pre-check.

        Returns ``True`` only when the pattern provably cannot match ``atom``
        under *any* binding environment — conservative, since it cannot see
        variable constraints; the default rejects nothing.  A plausible-candidate
        memory (:meth:`~repro.hocl.multiset.Multiset.memory_for`) keeps the
        verdict: a refuted entry is not offered again until it changes.
        """
        return False

    def variables(self) -> set[str]:
        """Names of all variables (including omegas) referenced by the pattern."""
        return set()

    def bound_names(self) -> set[str]:
        """Variable names a successful match of this pattern binds.

        Every variable referenced by a pattern is a binder (HOCL patterns
        have no free variables), so this equals :meth:`variables`; the
        method exists as the static-analysis entry point — product and
        condition variables are checked against this set by
        :mod:`repro.analysis` without running a reduction.
        """
        return self.variables()

    def omega_names(self) -> set[str]:
        """Subset of :meth:`bound_names` bound to *lists* of atoms (omegas).

        Products must splice these (``Splice``) rather than reference them
        (``Ref``); :mod:`repro.analysis` uses the distinction for its
        template-arity check.
        """
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

    def compile(self, layout: Layout, then: Continuation) -> Matcher:
        return _binder(layout.slot(self.name), then, self.kinds)

    def quick_reject(self, atom: Atom) -> bool:
        return self.kinds is not None and atom.kind not in self.kinds

    def variables(self) -> set[str]:
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

    def compile(self, layout: Layout, then: Continuation) -> Matcher:
        raise PatternError("an Omega captures the remainder of a solution: it cannot match a single atom")

    def variables(self) -> set[str]:
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

    def compile(self, layout: Layout, then: Continuation) -> Matcher:
        own = self.atom  # symbols are interned
        return lambda atom, registers: (atom is own or atom == own) and then(registers)

    def quick_reject(self, atom: Atom) -> bool:
        return atom is not self.atom and atom != self.atom  # symbols are interned

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

    def compile(self, layout: Layout, then: Continuation) -> Matcher:
        elements, rest = self.elements, self.rest
        count = len(elements)
        held = layout.scratch()  # the matched tuple's elements, for the continuations
        if rest is not None:
            bind = _binder(layout.slot(rest.name), then)
            then = lambda registers: bind(list(registers[held][count:]), registers)
        for index in range(count - 1, -1, -1):
            then = _element(elements[index].compile(layout, then), held, index)

        def match(atom: Any, registers: Registers) -> bool:
            if not isinstance(atom, TupleAtom):
                return False
            items = atom.elements
            if (len(items) != count) if rest is None else (len(items) < count):
                return False
            registers[held] = items
            return then(registers)

        return match

    def quick_reject(self, atom: Atom) -> bool:
        if not isinstance(atom, TupleAtom):
            return True
        elements = atom.elements
        own = self.elements
        if (len(elements) != len(own)) if self.rest is None else (len(elements) < len(own)):
            return True
        for pattern, element in zip(own, elements):
            if pattern.quick_reject(element):
                return True
        return False

    def variables(self) -> set[str]:
        names: set[str] = set()
        for element in self.elements:
            names |= element.variables()
        if self.rest is not None:
            names |= self.rest.variables()
        return names

    def omega_names(self) -> set[str]:
        names: set[str] = set()
        for element in self.elements:
            names |= element.omega_names()
        if self.rest is not None:
            names |= self.rest.omega_names()
        return names

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

    def compile(self, layout: Layout, then: Continuation) -> Matcher:
        elements, rest = self.elements, self.rest
        count = len(elements)
        held = layout.scratch()  # the matched solution
        used = layout.scratch(count)  # the entry each element pattern took
        if rest is not None:
            bind = _binder(layout.slot(rest.name), then)
            then = lambda registers: bind(_Rest(registers[held], registers[used : used + count]), registers)
        for index in range(count - 1, -1, -1):
            then = _pick(elements[index].compile(layout, then), self._element_keys[index], held, used, index)

        def match(atom: Any, registers: Registers) -> bool:
            if not isinstance(atom, Subsolution):
                return False
            size = len(atom.solution)
            if (size != count) if rest is None else (size < count):
                return False
            registers[held] = atom.solution
            return then(registers)

        return match

    def quick_reject(self, atom: Atom) -> bool:
        if not isinstance(atom, Subsolution):
            return True
        solution = atom.solution
        size = len(solution._entries)
        own = self.elements
        if (size != len(own)) if self.rest is None else (size < len(own)):
            return True
        for pattern, key in zip(own, self._element_keys):
            entries = solution.live_entries(key)
            if not entries:
                return True
            # a single candidate in the bucket must itself survive the check
            if len(entries) == 1 and pattern.quick_reject(entries[0].atom):
                return True
        return False

    def variables(self) -> set[str]:
        names: set[str] = set()
        for element in self.elements:
            names |= element.variables()
        if self.rest is not None:
            names |= self.rest.variables()
        return names

    def omega_names(self) -> set[str]:
        names: set[str] = set()
        for element in self.elements:
            names |= element.omega_names()
        if self.rest is not None:
            names |= self.rest.omega_names()
        return names

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

    def compile(self, layout: Layout, then: Continuation) -> Matcher:
        name = self.name
        bind = _binder(layout.slot(self.bind_as), then) if self.bind_as is not None else None

        def match(atom: Any, registers: Registers) -> bool:
            if atom.kind != "rule" or (name is not None and atom.name != name):
                return False
            return then(registers) if bind is None else bind(atom, registers)

        return match

    def quick_reject(self, atom: Atom) -> bool:
        if atom.kind != "rule":
            return True
        return self.name is not None and atom.name != self.name  # type: ignore[attr-defined]

    def variables(self) -> set[str]:
        return {self.bind_as} if self.bind_as else set()

    def index_key(self) -> Any | None:
        if self.name is not None:
            return ("rule", self.name)
        return ("kind", "rule")

    def __repr__(self) -> str:  # pragma: no cover
        return f"RulePattern(name={self.name!r}, bind_as={self.bind_as!r})"


def _element(match: Matcher, held: int, index: int) -> Continuation:
    """Continue with element ``index`` of the tuple a tuple pattern holds."""
    return lambda registers: match(registers[held][index], registers)


def _pick(match: Matcher, key: Any, held: int, used: int, index: int) -> Continuation:
    """Element ``index`` of a solution pattern: try every entry of its bucket
    no earlier element took — in the sub-solution's own index, a subsequence of
    insertion order like the top-level search's, read live (nothing mutates)."""

    def pick(registers: Registers) -> bool:
        taken = registers[used : used + index]  # `_Entry` has no `__eq__`: `in` is an identity scan
        for entry in registers[held].live_entries(key):
            if entry not in taken:
                registers[used + index] = entry
                if match(entry.atom, registers):
                    return True
        return False

    return pick


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
