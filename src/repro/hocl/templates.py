"""Right-hand-side templates of HOCL rules.

The product (``by`` part) of a rule is described by *templates*.  When a rule
fires, every template is expanded under the match bindings to produce the
atoms injected back into the solution.

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

from .atoms import Atom, ListAtom, Subsolution, TupleAtom, to_atom
from .errors import ExternalFunctionError, PatternError
from .patterns import Bindings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .externals import ExternalRegistry

__all__ = [
    "Template",
    "Ref",
    "Splice",
    "TupleTemplate",
    "SolutionTemplate",
    "ListTemplate",
    "Call",
    "expand_template",
    "expand_templates",
    "template_referenced_names",
]


class Template:
    """Abstract base class for product templates."""

    __slots__ = ()

    def expand(self, bindings: Bindings, externals: "ExternalRegistry | None") -> list[Atom]:
        """Return the atoms this template produces under ``bindings``."""
        raise NotImplementedError

    def referenced_names(self) -> set[str]:
        """Variable names :meth:`expand` reads from the bindings.

        The static-analysis entry point: :mod:`repro.analysis` compares this
        set against the pattern's bound names without expanding anything.
        """
        return set()


class Ref(Template):
    """Insert the single atom bound to variable ``name``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def expand(self, bindings: Bindings, externals: Any = None) -> list[Atom]:
        if self.name not in bindings:
            raise PatternError(f"product references unbound variable {self.name!r}")
        value = bindings[self.name]
        if isinstance(value, list):
            raise PatternError(
                f"variable {self.name!r} is an omega binding; use Splice({self.name!r})"
            )
        # a solution has one holder: one bound stays where it was bound
        return [atom.copy() if (atom := to_atom(value))._mutable else atom]

    def referenced_names(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ref({self.name!r})"


class Splice(Template):
    """Splice the atoms captured by omega variable ``name`` (possibly none)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def expand(self, bindings: Bindings, externals: Any = None) -> list[Atom]:
        if self.name not in bindings:
            raise PatternError(f"product references unbound omega {self.name!r}")
        value = bindings[self.name]
        if not isinstance(value, list):
            return [atom.copy() if (atom := to_atom(value))._mutable else atom]
        return [atom.copy() if (atom := to_atom(item))._mutable else atom for item in value]

    def referenced_names(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Splice({self.name!r})"


class TupleTemplate(Template):
    """Build a tuple atom from element templates (splices are flattened)."""

    __slots__ = ("elements",)

    def __init__(self, *elements: Any) -> None:
        self.elements = tuple(elements)

    def expand(self, bindings: Bindings, externals: Any = None) -> list[Atom]:
        produced: list[Atom] = []
        for element in self.elements:
            produced.extend(expand_template(element, bindings, externals))
        return [TupleAtom(produced)]

    def referenced_names(self) -> set[str]:
        return _referenced_in_all(self.elements)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TupleTemplate({', '.join(repr(e) for e in self.elements)})"


class SolutionTemplate(Template):
    """Build a sub-solution atom from element templates."""

    __slots__ = ("elements",)

    def __init__(self, *elements: Any) -> None:
        self.elements = tuple(elements)

    def expand(self, bindings: Bindings, externals: Any = None) -> list[Atom]:
        produced: list[Atom] = []
        for element in self.elements:
            produced.extend(expand_template(element, bindings, externals))
        return [Subsolution(produced)]

    def referenced_names(self) -> set[str]:
        return _referenced_in_all(self.elements)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SolutionTemplate({', '.join(repr(e) for e in self.elements)})"


class ListTemplate(Template):
    """Build an HOCLflow list atom from element templates."""

    __slots__ = ("elements",)

    def __init__(self, *elements: Any) -> None:
        self.elements = tuple(elements)

    def expand(self, bindings: Bindings, externals: Any = None) -> list[Atom]:
        produced: list[Atom] = []
        for element in self.elements:
            produced.extend(expand_template(element, bindings, externals))
        return [ListAtom(produced)]

    def referenced_names(self) -> set[str]:
        return _referenced_in_all(self.elements)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ListTemplate({', '.join(repr(e) for e in self.elements)})"


class Call(Template):
    """Invoke an external function on the expanded arguments.

    The function is looked up in the :class:`~repro.hocl.externals.ExternalRegistry`
    supplied by the engine; its return value is coerced to one or more atoms
    (a returned list/tuple of atoms is spliced, any other value becomes a
    single atom).
    """

    __slots__ = ("function", "arguments")

    def __init__(self, function: str, *arguments: Any):
        self.function = function
        self.arguments = tuple(arguments)

    def expand(self, bindings: Bindings, externals: Any = None) -> list[Atom]:
        if externals is None:
            raise ExternalFunctionError(
                f"rule product calls {self.function!r} but no external registry is available"
            )
        args: list[Atom] = []
        for argument in self.arguments:
            args.extend(expand_template(argument, bindings, externals))
        result = externals.invoke(self.function, args, bindings)
        return _coerce_result(result)

    def referenced_names(self) -> set[str]:
        return _referenced_in_all(self.arguments)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Call({self.function!r}, {', '.join(repr(a) for a in self.arguments)})"


def _coerce_result(result: Any) -> list[Atom]:
    """Coerce the return value of a Call into a list of atoms (one holding a
    solution copied: the external may keep it, or have read it from a binding)."""
    if result is None:
        return []
    if isinstance(result, Atom):
        return [result.copy() if result._mutable else result]
    if isinstance(result, (list, tuple)) and all(isinstance(item, Atom) for item in result):
        return [item.copy() if item._mutable else item for item in result]
    return [atom.copy() if (atom := to_atom(result))._mutable else atom]


def template_referenced_names(template: Any) -> set[str]:
    """Variable names a template (or literal product value) reads when expanded."""
    if isinstance(template, Template):
        return template.referenced_names()
    return set()


def _referenced_in_all(templates: Sequence[Any]) -> set[str]:
    names: set[str] = set()
    for template in templates:
        names |= template_referenced_names(template)
    return names


def expand_template(template: Any, bindings: Bindings, externals: Any = None) -> list[Atom]:
    """Expand a single template (or literal value) into a list of atoms.

    Whatever holds a solution is copied — a literal, a bound atom, a call's
    result: a patch or a nested reduction edits the solution it lands in, and
    must not edit the rule or the solution it was read from.
    """
    if isinstance(template, Template):
        return template.expand(bindings, externals)
    atom = to_atom(template)
    return [atom.copy() if atom._mutable else atom]


def expand_templates(
    templates: Sequence[Any], bindings: Bindings, externals: Any = None
) -> list[Atom]:
    """Expand a sequence of templates into the flat list of produced atoms."""
    produced: list[Atom] = []
    for template in templates:
        produced.extend(expand_template(template, bindings, externals))
    return produced
