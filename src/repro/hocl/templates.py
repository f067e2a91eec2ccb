"""Right-hand-side templates of HOCL rules.

The product (``by`` part) of a rule is described by *templates*.  When a rule
fires, every template it does not restate is expanded under the match
bindings to produce the atoms injected back into the solution.  Nothing
interprets a template tree then: :meth:`Template.emit` writes, once, the
expression that builds its atoms, and :mod:`repro.hocl.deltas` compiles the
expressions of a whole rule into its generated fire.

Template nodes
--------------
``Ref(name)``
    Insert the atom bound to variable ``name``.
``Splice(name)``
    Splice the list bound to omega variable ``name`` (zero or more atoms)
    into the enclosing solution / tuple / argument list.
``TupleTemplate(*elements)``
    Build a :class:`~repro.hocl.atoms.TupleAtom`.
``SolutionTemplate(*elements)``
    Build a :class:`~repro.hocl.atoms.Subsolution`.
``ListTemplate(*elements)``
    Build a :class:`~repro.hocl.atoms.ListAtom`.
``Call(function, *arguments)``
    Invoke an external function (see :mod:`repro.hocl.externals`) on the
    expanded arguments; the returned value(s) are coerced to atoms.  This is
    how ``gw_call`` invokes the service (``invoke(s, par)``) and how
    ``gw_setup`` builds the parameter list (``list(w)``).

Any plain value (or :class:`~repro.hocl.atoms.Atom`) used as a template is a
literal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .atoms import Atom, to_atom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .deltas import Fire

__all__ = [
    "Template",
    "Ref",
    "Splice",
    "TupleTemplate",
    "SolutionTemplate",
    "ListTemplate",
    "Call",
]


class Template:
    """Abstract base class for product templates."""

    __slots__ = ()

    def emit(self, out: "Fire") -> str:
        """An item of a list display that builds the atoms this template
        produces: one atom's expression, or ``*`` and a list's.  What it reads
        of the bindings, ``out`` reads into a local before it."""
        raise NotImplementedError


class Ref(Template):
    """Insert the single atom bound to variable ``name``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def emit(self, out: "Fire") -> str:
        # a solution has one holder: one bound stays where it was bound
        held = out.atom(self.name)
        return f"({held}.copy() if {held}._mutable else {held})"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ref({self.name!r})"


class Splice(Template):
    """Splice the atoms captured by omega variable ``name`` (possibly none)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def emit(self, out: "Fire") -> str:
        return f"*[a.copy() if a._mutable else a for a in {out.atoms(self.name)}]"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Splice({self.name!r})"


class _Built(Template):
    """A template building one atom of class :attr:`builds` from element
    templates (splices are flattened)."""

    __slots__ = ("elements",)
    builds = ""

    def __init__(self, *elements: Any) -> None:
        self.elements = tuple(elements)

    def emit(self, out: "Fire") -> str:
        return f"{self.builds}({emit_list(self.elements, out)})"

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({', '.join(repr(e) for e in self.elements)})"


class TupleTemplate(_Built):
    """Build a tuple atom from element templates."""

    __slots__ = ()
    builds = "TupleAtom"


class SolutionTemplate(_Built):
    """Build a sub-solution atom from element templates."""

    __slots__ = ()
    builds = "Subsolution"


class ListTemplate(_Built):
    """Build an HOCLflow list atom from element templates."""

    __slots__ = ()
    builds = "ListAtom"


class Call(Template):
    """Invoke an external function on the expanded arguments.

    The function is looked up in the :class:`~repro.hocl.externals.ExternalRegistry`
    supplied by the engine, and handed the arguments and every binding; its
    return value is coerced to one or more atoms (a returned list/tuple of
    atoms is spliced, any other value becomes a single atom).
    """

    __slots__ = ("function", "arguments")

    def __init__(self, function: str, *arguments: Any):
        self.function = function
        self.arguments = tuple(arguments)

    def emit(self, out: "Fire") -> str:
        arguments = emit_list(self.arguments, out)  # first: an ω they copy is handed as copied
        return f"*coerce({out.externals(self.function)}.invoke({self.function!r}, {arguments}, b))"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Call({self.function!r}, {', '.join(repr(a) for a in self.arguments)})"


def coerce(result: Any) -> list[Atom]:
    """Coerce the return value of a Call into a list of atoms (one holding a
    solution copied: the external may keep it, or have read it from a binding)."""
    if result is None:
        return []
    if isinstance(result, Atom):
        return [result.copy() if result._mutable else result]
    if isinstance(result, (list, tuple)) and all(isinstance(item, Atom) for item in result):
        return [item.copy() if item._mutable else item for item in result]
    return [atom.copy() if (atom := to_atom(result))._mutable else atom]


def emit_template(template: Any, out: "Fire") -> str:
    """:meth:`Template.emit` of ``template``, or the constant of a literal.

    Whatever holds a solution is copied — a literal, a bound atom, a call's
    result: a patch or a nested reduction edits the solution it lands in, and
    must not edit the rule or the solution it was read from.
    """
    if isinstance(template, Template):
        return template.emit(out)
    atom = to_atom(template)
    return f"{out.const(atom)}.copy()" if atom._mutable else out.const(atom)


def emit_list(templates: Sequence[Any], out: "Fire") -> str:
    """An expression for a new list of what ``templates`` produce, in order."""
    return display([emit_template(template, out) for template in templates])


def display(items: list[str]) -> str:
    """An expression for a new list of ``items`` (items of a list display)."""
    # a spread item is a new list already (a comprehension, a coerced result)
    return items[0][1:] if len(items) == 1 and items[0][0] == "*" else f"[{', '.join(items)}]"
