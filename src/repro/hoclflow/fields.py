"""Builders and accessors for task-subsolution fields.

A task sub-solution (the ``T1 : <...>`` of Fig. 3) contains one *field tuple*
per reserved keyword: ``SRC : <...>``, ``DST : <...>``, ``SRV : "s1"``,
``IN : <...>``, ``RES : <...>`` and, once set up, ``PAR : [...]``.  This
module centralises how those tuples are built and read, both for the
centralised translation and for the service agents' local solutions.  The
agents edit their fields *in place* between reductions
(:func:`remove_task_name`, :func:`add_to_field`): a received result costs one
removed ``SRC`` atom and one added ``IN`` atom, never a rebuilt field.

Transferred results are stored in the destination's ``IN`` solution as
*tagged* pairs ``Ti : value`` (a 2-tuple whose head is the producing task's
symbol).  Tagging keeps the parameter order deterministic and lets the
``mv_src`` adaptation drop exactly the inputs that came from replaced tasks;
see DESIGN.md ("Design notes") for the rationale of this small deviation from
the untagged multiset of the paper.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.hocl import (
    Atom,
    ListAtom,
    Multiset,
    StringAtom,
    Subsolution,
    Symbol,
    TupleAtom,
    from_atom,
    to_atom,
)

from . import keywords as kw

__all__ = [
    "src_field",
    "dst_field",
    "srv_field",
    "in_field",
    "res_field",
    "par_field",
    "tagged_input",
    "is_tagged_input",
    "tagged_input_source",
    "tagged_input_value",
    "get_field",
    "get_task_names",
    "remove_task_name",
    "add_to_field",
    "get_src",
    "get_dst",
    "get_service",
    "get_in_atoms",
    "get_res_atoms",
    "get_par_values",
    "has_error",
    "has_result",
    "res_state",
    "build_parameters",
    "task_tuple",
    "task_solution",
]


# ----------------------------------------------------------------- builders
def src_field(task_names: Iterable[str] = ()) -> TupleAtom:
    """``SRC : <T...>`` — the tasks this task still waits for."""
    return TupleAtom([kw.SRC_SYM, Subsolution(map(Symbol, task_names))])


def dst_field(task_names: Iterable[str] = ()) -> TupleAtom:
    """``DST : <T...>`` — the tasks this task must send its result to."""
    return TupleAtom([kw.DST_SYM, Subsolution(map(Symbol, task_names))])


def srv_field(service_name: str) -> TupleAtom:
    """``SRV : "service"`` — the service implementing the task."""
    return TupleAtom([kw.SRV_SYM, StringAtom(service_name)])


def in_field(values: Iterable[Any] = ()) -> TupleAtom:
    """``IN : <...>`` — initial inputs and received results."""
    return TupleAtom([kw.IN_SYM, Subsolution(map(to_atom, values))])


def res_field(values: Iterable[Any] = ()) -> TupleAtom:
    """``RES : <...>`` — result(s) of the invocation (empty before it)."""
    return TupleAtom([kw.RES_SYM, Subsolution(map(to_atom, values))])


def par_field(values: Iterable[Any] = ()) -> TupleAtom:
    """``PAR : [...]`` — the parameter list passed to the service."""
    return TupleAtom([kw.PAR_SYM, ListAtom(values)])


def tagged_input(source_task: str, value: Any) -> TupleAtom:
    """A received result tagged with its producer: ``Ti : value``."""
    return TupleAtom([Symbol(source_task), to_atom(value)])


def is_tagged_input(atom: Atom) -> bool:
    """Whether ``atom`` is a tagged result pair (as produced by ``gw_pass``)."""
    return (
        isinstance(atom, TupleAtom)
        and len(atom.elements) == 2
        and isinstance(atom.elements[0], Symbol)
        and atom.elements[0].name not in kw.RESERVED_KEYWORDS
    )


def tagged_input_source(atom: TupleAtom) -> str:
    """Producer task name of a tagged result pair."""
    return atom.elements[0].name  # type: ignore[union-attr]


def tagged_input_value(atom: TupleAtom) -> Atom:
    """Value carried by a tagged result pair."""
    return atom.elements[1]


# ---------------------------------------------------------------- accessors
def get_field(solution: Multiset, keyword: str) -> TupleAtom | None:
    """The field tuple ``keyword : ...`` of a task solution (or ``None``)."""
    return solution.find_tuple(keyword)


def _field_solution(solution: Multiset, keyword: str) -> Multiset | None:
    # `get_field` written out: an agent reads fields on every stimulus, each in this one frame
    bucket = solution._index.get(("tuple", keyword))
    if not bucket:
        return None
    elements = bucket[0].atom.elements  # type: ignore[attr-defined]
    return elements[1].solution if len(elements) >= 2 and isinstance(elements[1], Subsolution) else None


def get_task_names(solution: Multiset, keyword: str) -> list[str]:
    """Task names listed in the ``SRC`` or ``DST`` field."""
    body = _field_solution(solution, keyword)
    if body is None:
        return []
    return [atom.name for atom in body if isinstance(atom, Symbol)]


def remove_task_name(solution: Multiset, keyword: str, task_name: str) -> bool:
    """Drop every occurrence of ``task_name`` from the ``SRC``/``DST`` field, in place.

    Returns whether the name was listed.  The field tuple stays where it is
    and the other names keep their order; the name is located through the
    field body's ``("symbol", name)`` bucket, so the cost does not depend on
    how many names the field lists.
    """
    body = _field_solution(solution, keyword)
    listed = False
    while body is not None and body.remove_symbol(task_name):
        listed = True
    return listed


def add_to_field(solution: Multiset, keyword: str, value: Any) -> None:
    """Add ``value`` to the sub-solution of field ``keyword``, in place (no-op without one)."""
    body = _field_solution(solution, keyword)
    if body is not None:
        body.add(value)


def get_src(solution: Multiset) -> list[str]:
    """Pending source dependencies of the task."""
    return get_task_names(solution, kw.SRC)


def get_dst(solution: Multiset) -> list[str]:
    """Pending destinations of the task."""
    return get_task_names(solution, kw.DST)


def get_service(solution: Multiset) -> str | None:
    """Service name stored in the ``SRV`` field."""
    field = get_field(solution, kw.SRV)
    if field is None or len(field.elements) < 2:
        return None
    return str(from_atom(field.elements[1]))


def get_in_atoms(solution: Multiset) -> list[Atom]:
    """Raw atoms stored in the ``IN`` field (initial inputs + tagged results)."""
    body = _field_solution(solution, kw.IN)
    return list(body) if body is not None else []


def get_res_atoms(solution: Multiset) -> list[Atom]:
    """Raw atoms stored in the ``RES`` field."""
    body = _field_solution(solution, kw.RES)
    return list(body) if body is not None else []


def get_par_values(solution: Multiset) -> list[Any] | None:
    """Unwrapped parameter list from the ``PAR`` field, or ``None`` if absent."""
    field = get_field(solution, kw.PAR)
    if field is None or len(field.elements) < 2:
        return None
    return from_atom(field.elements[1])  # a ListAtom unwraps to a Python list


def res_state(solution: Multiset) -> tuple[bool, bool]:
    """``(has_result, has_error)``: whether the ``RES`` field holds a (non-error)
    result, and whether it holds the ``ERROR`` marker — read from the field's
    index, with no list of its atoms."""
    body = _field_solution(solution, kw.RES)
    if body is None:
        return False, False
    error = ("symbol", kw.ERROR) in body._index
    return bool(body._entries) and not error, error


def has_error(solution: Multiset) -> bool:
    """Whether the ``RES`` field contains the ``ERROR`` marker."""
    return res_state(solution)[1]


def has_result(solution: Multiset) -> bool:
    """Whether the ``RES`` field contains a (non-error) result."""
    return res_state(solution)[0]


# --------------------------------------------------------------- parameters
def build_parameters(in_atoms: Sequence[Atom]) -> list[Any]:
    """Turn the ``IN`` contents into the ordered parameter list.

    Initial (untagged) inputs come first, in insertion order; tagged results
    follow, ordered by producing task name so the parameter order does not
    depend on message arrival order.
    """
    initial: list[Any] = []
    tagged: list[tuple[str, Any]] = []
    for atom in in_atoms:
        if is_tagged_input(atom):
            tagged.append((tagged_input_source(atom), from_atom(tagged_input_value(atom))))
        else:
            initial.append(from_atom(atom))
    tagged.sort(key=lambda pair: pair[0])
    return initial + [value for _source, value in tagged]


# ----------------------------------------------------------- task solutions
def task_solution(
    source_tasks: Iterable[str],
    destination_tasks: Iterable[str],
    service: str,
    inputs: Iterable[Any] = (),
    rules: Iterable[Any] = (),
) -> Multiset:
    """The initial local solution of one task: its fields, then ``rules``, in one pass."""
    return Multiset(
        [
            src_field(source_tasks),
            dst_field(destination_tasks),
            srv_field(service),
            in_field(inputs),
            res_field(),
            *rules,
        ]
    )


def task_tuple(
    task_name: str,
    source_tasks: Iterable[str],
    destination_tasks: Iterable[str],
    service: str,
    inputs: Iterable[Any] = (),
) -> TupleAtom:
    """The ``Tname : <fields...>`` tuple placed in the global solution."""
    return TupleAtom([Symbol(task_name), Subsolution(task_solution(source_tasks, destination_tasks, service, inputs))])
