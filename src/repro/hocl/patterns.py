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

Bindings are plain dictionaries mapping variable names to
:class:`~repro.hocl.atoms.Atom` (or ``list[Atom]`` for omegas).  A variable
appearing several times must bind structurally equal atoms.
"""

from __future__ import annotations

from typing import Any, Iterator

from .atoms import Atom, Subsolution, Symbol, TupleAtom, to_atom
from .errors import PatternError
from .multiset import atom_index_keys

__all__ = [
    "Bindings",
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

#: A variable environment produced by matching: variable name -> atom, or
#: variable name -> list of atoms for omega (rest) variables.
Bindings = dict[str, Any]

def _bind(bindings: Bindings, name: str, value: Any) -> Bindings | None:
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


class Pattern:
    """Abstract base class of all patterns."""

    __slots__ = ()

    def match(self, atom: Atom, bindings: Bindings) -> Iterator[Bindings]:
        """Yield every extension of ``bindings`` under which ``atom`` matches."""
        raise NotImplementedError

    def quick_reject(self, atom: Atom) -> bool:
        """Cheap, binding-free pre-check used by the matcher's candidate loops.

        Returns ``True`` only when :meth:`match` provably yields nothing for
        ``atom`` under *any* binding environment — the check must be
        conservative, since it cannot see variable constraints.  The default
        rejects nothing.  This is the matcher's main early exit: a failing
        candidate costs a few attribute reads instead of a generator cascade.
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

    def index_key_with(self, bindings: Bindings) -> Any | None:
        """Like :meth:`index_key`, but sharpened by an existing environment.

        During a multi-pattern search, variables bound by earlier patterns
        can make a later pattern far more selective — e.g. a ``Tj : <...>``
        tuple pattern whose head variable is already bound to a symbol can
        only match tuples in that symbol's bucket, turning an O(solution)
        scan into a single-bucket lookup.  The same guarantee as
        :meth:`index_key` holds relative to ``bindings``: every atom the
        pattern can match *under this environment* carries the returned key,
        and bucket order keeps the narrowed enumeration trace-identical.  The
        matcher only asks where the static key is broad (a whole kind bucket,
        or none): a head key is as sharp as a key gets.
        """
        return self.index_key()


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

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str | None = None):
        if not name:
            raise PatternError("Var requires a non-empty name")
        self.name = name
        self.kind = kind

    def match(self, atom: Atom, bindings: Bindings) -> Iterator[Bindings]:
        if self.kind is not None:
            if self.kind == "number":
                if atom.kind not in ("int", "float"):
                    return
            elif atom.kind != self.kind:
                return
        extended = _bind(bindings, self.name, atom)
        if extended is not None:
            yield extended

    def quick_reject(self, atom: Atom) -> bool:
        kind = self.kind
        if kind is None:
            return False
        if kind == "number":
            return atom.kind not in ("int", "float")
        return atom.kind != kind

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

    def match(self, atom: Atom, bindings: Bindings) -> Iterator[Bindings]:  # pragma: no cover
        raise PatternError(
            "Omega patterns capture the remainder of a solution; they cannot "
            "match a single atom directly"
        )

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

    def match(self, atom: Atom, bindings: Bindings) -> Iterator[Bindings]:
        if atom == self.atom:
            yield bindings

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

    def match(self, atom: Atom, bindings: Bindings) -> Iterator[Bindings]:
        if not isinstance(atom, TupleAtom):
            return
        if self.rest is None:
            if len(atom.elements) != len(self.elements):
                return
        elif len(atom.elements) < len(self.elements):
            return

        def recurse(index: int, env: Bindings) -> Iterator[Bindings]:
            if index == len(self.elements):
                if self.rest is None:
                    yield env
                else:
                    extended = _bind(env, self.rest.name, list(atom.elements[index:]))
                    if extended is not None:
                        yield extended
                return
            for extended in self.elements[index].match(atom.elements[index], env):
                yield from recurse(index + 1, extended)

        yield from recurse(0, bindings)

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

    def index_key_with(self, bindings: Bindings) -> Any | None:
        # A variable head already bound to a symbol (``gw_pass`` binds Tj
        # inside Ti's DST before trying Tj's own tuple) pins the search to
        # that symbol's tuple bucket.
        if self.elements:
            first = self.elements[0]
            if isinstance(first, Var):
                bound = bindings.get(first.name)
                if isinstance(bound, Symbol):
                    return ("tuple", bound.name)
        return self.index_key()

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
        #: element index keys, precomputed once: consulted per candidate in
        #: the match/quick-reject hot loops
        self._element_keys = tuple(e.index_key() for e in self.elements)

    def match(self, atom: Atom, bindings: Bindings) -> Iterator[Bindings]:
        if not isinstance(atom, Subsolution):
            return
        solution = atom.solution
        size = len(solution)
        if self.rest is None and size != len(self.elements):
            return
        if size < len(self.elements):
            return
        # Draw each element pattern's candidates from the sub-solution's own
        # head-symbol index (same subsequence-of-insertion-order guarantee as
        # the top-level matcher, so enumeration order is unchanged).  Live
        # bucket views: nothing mutates the solution during one match search.
        candidate_lists = []
        for key in self._element_keys:
            entries = solution.live_entries(key)
            if not entries:
                return
            candidate_lists.append(entries)

        def recurse(index: int, used: list, env: Bindings) -> Iterator[Bindings]:
            if index == len(self.elements):
                if self.rest is None:
                    yield env
                else:
                    # `used` holds _Entry objects (no __eq__), so `in` is an
                    # identity test at C speed
                    remainder = [
                        entry.atom for entry in solution.live_entries() if entry not in used
                    ]
                    extended = _bind(env, self.rest.name, remainder)
                    if extended is not None:
                        yield extended
                return
            pattern = self.elements[index]
            for entry in candidate_lists[index]:
                if entry in used:
                    continue
                if pattern.quick_reject(entry.atom):
                    continue
                for extended in pattern.match(entry.atom, env):
                    yield from recurse(index + 1, used + [entry], extended)

        yield from recurse(0, [], bindings)

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

    def match(self, atom: Atom, bindings: Bindings) -> Iterator[Bindings]:
        from .rules import Rule  # local import to avoid a cycle

        if not isinstance(atom, Rule):
            return
        if self.name is not None and atom.name != self.name:
            return
        if self.bind_as is None:
            yield bindings
            return
        extended = _bind(bindings, self.bind_as, atom)
        if extended is not None:
            yield extended

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
