"""In-place rewrite deltas — how the engine fires every rule.

A rule is written once, as HOCL writes it: patterns and products.  Fired to
the letter it would *rebuild*: remove every matched atom and expand fresh
products, even where a product restates most of what was matched —
``gw_pass`` would re-create two whole task tuples, re-inserting and
re-indexing every ``IN``/``SRC`` entry, to move one result across one edge.
The engine fires the rule's :class:`RewriteDelta` instead, which
:func:`derive_delta` reads off the two sides at the rule's first fire:

* a product that *restates* a matched atom keeps that atom: a ``Ref(x)``
  restates ``Var(x)``, a symbol its ``SymbolPattern`` (an equal atom any
  ``Literal``), a tuple a tuple field by field, a sub-solution a sub-solution;
* inside a kept solution body whose ω is spliced back, a sub-pattern the
  template drops becomes a :class:`PatchRemove`, a template element with no
  sub-pattern it restates a :class:`PatchAdd`, and a ``HEAD : <...>`` field
  restated under its head is patched in turn, one level down;
* every other matched atom is consumed and every other product produced; a
  ``keep_matched`` rule keeps every matched atom.

``gw_pass`` (paper 4.07–4.11) derives three patches — ``tj`` out of the
source's ``DST``, ``ti`` out of the destination's ``SRC``, ``ti : res`` into
its ``IN`` — and consumes nothing; ``mv_src``, whose bodies are rebuilt by
the externals ``minus`` and ``drop_inputs``, restates nothing and consumes all
it matched.

Copy-on-write: a delta never deep-copies a payload.  Atoms added by a patch
are shared by reference (as ``Ref``/``Splice`` expansion shares them), and the
atoms around the patch — the tuple spine, the other fields, the untouched
inputs — keep their cached hashes.  Mutating a nested
:class:`~repro.hocl.multiset.Multiset` bumps its version through every
enclosing solution (``Multiset._touch``): exactly the caches the patch can
have made stale.  A kept matched atom keeps its occurrence entry, its place in
the level and in every index bucket, and its holder wiring.

Addressing
----------
A patch names its target as ``(at, path)``: ``at`` is the index of the
left-hand-side pattern whose matched atom anchors it (``match.consumed[at]``);
the anchor resolves to its directly nested solution (a sub-solution atom to
itself, a tuple to its first sub-solution element), then every head in
``path`` selects the ``head : <...>`` field tuple of the current solution and
descends into its body.  ``gw_pass`` patches ``(0, ("DST",))`` and
``(1, ("SRC",))`` / ``(1, ("IN",))``.

A path names a field by its head, and a patch edits a solution every holder
sees.  So a firing whose path meets a body holding more than one field under
a head (the match does not record which one it bound), or a solution held
more than once (``Ref``/``Splice`` expansion shares atoms), has no safe target:
it takes the rule's rebuild form instead — everything matched consumed, every
product expanded, as the rule reads to the letter.  The targets are resolved
before anything moves, so such a firing changes nothing in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .atoms import Atom, Subsolution, TupleAtom
from .errors import DeltaError
from .matching import Match
from .multiset import Multiset
from .patterns import Bindings, Literal, Pattern, RulePattern, SolutionPattern, TuplePattern, Var
from .templates import (
    Call,
    Ref,
    SolutionTemplate,
    Splice,
    TupleTemplate,
    _referenced_in_all,
    expand_template,
    expand_templates,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .externals import ExternalRegistry

__all__ = ["derive_delta"]


def _anchor_solution(anchor: Atom) -> Multiset:
    """The solution directly nested in ``anchor`` (its patchable body)."""
    if isinstance(anchor, Subsolution):
        return anchor.solution
    if isinstance(anchor, TupleAtom):
        for element in anchor.elements:
            if isinstance(element, Subsolution):
                return element.solution
        raise DeltaError(f"matched tuple {anchor} carries no sub-solution to patch")
    raise DeltaError(f"matched atom {anchor!r} has no nested solution to patch")


def _resolve_target(anchor: Atom, path: tuple[str, ...]) -> Multiset | None:
    """Walk ``path`` (field heads) from ``anchor`` down to the target solution;
    ``None`` when no patch may land there: a head names more than one field of
    a body on the way, or a solution on the way has more than one holder."""
    solution = _anchor_solution(anchor)
    for head in path:
        fields = solution._index.get(("tuple", head))
        if not fields:
            raise DeltaError(f"patch path names field {head!r}, absent from {anchor}")
        if len(fields) > 1 or len(solution._parents) > 1:
            return None
        solution = _anchor_solution(fields[0].atom)
    return None if len(solution._parents) > 1 else solution


def _is_opaque(template: Any) -> bool:
    """Whether expanding ``template`` can read bindings it does not name."""
    if isinstance(template, Call):
        return True
    return any(map(_is_opaque, getattr(template, "elements", ())))


class DeltaOp:
    """One in-place edit of a nested solution of a kept matched atom."""

    __slots__ = ("at", "path")

    def __init__(self, at: int, path: Sequence[str] = ()):
        self.at = int(at)
        self.path = tuple(path)

    def apply(
        self, target: Multiset, bindings: Bindings, externals: "ExternalRegistry | None"
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def expanded(self) -> tuple[Any, ...]:
        """The templates the op expands when applied."""
        return ()


class PatchAdd(DeltaOp):
    """Add the expansion of ``templates`` to the target solution."""

    __slots__ = ("templates",)

    def __init__(self, at: int, path: Sequence[str] = (), templates: Sequence[Any] = ()):
        super().__init__(at, path)
        self.templates = tuple(templates)

    def apply(self, target: Multiset, bindings: Bindings, externals: "ExternalRegistry | None") -> None:
        for atom in expand_templates(self.templates, bindings, externals):
            target.add(atom)

    def expanded(self) -> tuple[Any, ...]:
        return self.templates

    def __repr__(self) -> str:
        return f"PatchAdd(at={self.at}, path={self.path!r}, templates={self.templates!r})"


class PatchRemove(DeltaOp):
    """Remove one occurrence of each expanded item from the target solution.

    Items are templates (usually ``Ref``/literals); each expanded atom is
    removed by structural equality — the counterpart of matching it with a
    pattern and not re-emitting it in the products.
    """

    __slots__ = ("items",)

    def __init__(self, at: int, path: Sequence[str] = (), items: Sequence[Any] = ()):
        super().__init__(at, path)
        self.items = tuple(items)

    def apply(self, target: Multiset, bindings: Bindings, externals: "ExternalRegistry | None") -> None:
        for item in self.items:
            for atom in expand_template(item, bindings, externals):
                try:
                    target.remove(atom)
                except KeyError as exc:
                    raise DeltaError(
                        f"patch removes {atom}, absent from the target solution"
                    ) from exc

    def expanded(self) -> tuple[Any, ...]:
        return self.items

    def __repr__(self) -> str:
        return f"PatchRemove(at={self.at}, path={self.path!r}, items={self.items!r})"


class RewriteDelta:
    """The in-place form of a :class:`~repro.hocl.rules.Rule` (see :func:`derive_delta`).

    Parameters
    ----------
    ops:
        In-place edits against kept matched atoms, applied in order.
    consume:
        Indices of left-hand-side patterns whose matched atoms are removed
        from the solution (everything not listed is kept in place).
    produce:
        Templates for new top-level atoms.
    rebuild:
        The rule's products, expanded whole (everything matched consumed) by
        a firing in which an op has no safe target.
    """

    __slots__ = ("ops", "consume", "produce", "rebuild", "eager")

    def __init__(
        self,
        ops: Sequence[DeltaOp] = (),
        consume: Sequence[int] = (),
        produce: Sequence[Any] = (),
        rebuild: Sequence[Any] = (),
    ):
        self.ops = tuple(ops)
        self.consume = tuple(consume)
        self.produce = tuple(produce)
        self.rebuild = tuple(rebuild)
        #: The names read once the patching has started, which the engine
        #: therefore reads before (an omega is copied out of its solution at its
        #: first read); ``None``: any — a ``Call`` sees every binding.
        expanded = list(self.produce)
        for op in self.ops:
            expanded += op.expanded()
        self.eager = None if any(map(_is_opaque, expanded)) else tuple(sorted(_referenced_in_all(expanded)))

    def targets(self, match: Match) -> list[Multiset] | None:
        """The solution each op edits, resolved before anything moves; ``None``
        when one has no safe target."""
        consumed = match.consumed
        targets = []
        for op in self.ops:
            target = _resolve_target(consumed[op.at], op.path)
            if target is None:
                return None
            targets.append(target)
        return targets

    def apply(
        self,
        match: Match,
        solution: Multiset,
        externals: "ExternalRegistry | None",
    ) -> tuple[list[Atom], list[Atom]]:
        """Apply the delta in place on ``solution``; returns ``(removed, added)``.

        The ``produce`` templates expand first (a raising one leaves the
        solution as it was), then the patches edit the kept atoms' bodies, the
        atoms matched by the ``consume`` patterns leave the level (in pattern
        order) and the expansions join it; nothing else moves.  Without a safe
        target for every op, the ``rebuild`` products expand and everything
        matched leaves instead.
        """
        targets = self.targets(match) if self.ops else ()
        if targets is None:
            added = expand_templates(self.rebuild, match.bindings, externals)
            removed = list(match.consumed)
        else:
            added = expand_templates(self.produce, match.bindings, externals) if self.produce else []
            for op, target in zip(self.ops, targets):
                op.apply(target, match.bindings, externals)
            matched = match.consumed
            removed = [matched[index] for index in self.consume]
        for atom in removed:
            solution.remove_identical(atom)
        for atom in added:
            solution.add(atom)
        return removed, added

    def __repr__(self) -> str:
        return f"RewriteDelta(ops={self.ops!r}, consume={self.consume!r}, produce={self.produce!r})"


def derive_delta(patterns: Sequence[Pattern], products: Sequence[Any], keep_matched: bool = False) -> RewriteDelta:
    """The in-place form of the rule ``patterns -> products`` (see the module docstring).

    Each product, in order, keeps the first matched atom not kept yet that it
    restates; the patches that restatement needs join ``ops``.
    """
    if keep_matched:
        return RewriteDelta(produce=products)
    kept: set[int] = set()
    ops: list[DeltaOp] = []
    produce = []
    for product in products:
        for at, pattern in enumerate(patterns):
            patches = None if at in kept else _restated(pattern, product, at, ())
            if patches is not None:
                kept.add(at)
                ops += patches
                break
        else:
            produce.append(product)
    consume = [at for at in range(len(patterns)) if at not in kept]
    return RewriteDelta(ops, consume, produce, products if ops else ())


def _restated(pattern: Pattern, template: Any, at: int, path: tuple[str, ...] | None) -> list[DeltaOp] | None:
    """The patches turning the atom ``pattern`` matched into ``template``'s
    expansion; ``None`` when ``template`` does not restate it.

    ``path`` reaches the atom's patchable body from the anchor ``at``;
    ``None``: no path does, so only an unchanged restatement keeps the atom.
    """
    if isinstance(pattern, Var):
        return [] if isinstance(template, Ref) and template.name == pattern.name else None
    if isinstance(pattern, Literal):  # a symbol is interned: identity first
        return [] if template is pattern.atom or isinstance(template, Atom) and template == pattern.atom else None
    if isinstance(pattern, SolutionPattern):
        return _patched_body(pattern, template, at, path) if isinstance(template, SolutionTemplate) else None
    if not (isinstance(pattern, TuplePattern) and isinstance(template, TupleTemplate)):
        return None
    fields = template.elements
    if pattern.rest is not None:
        if not (fields and isinstance(fields[-1], Splice) and fields[-1].name == pattern.rest.name):
            return None
        fields = fields[:-1]
    if len(fields) != len(pattern.elements):
        return None
    ops: list[DeltaOp] = []
    for element, field in zip(pattern.elements, fields):
        # the path reaches the tuple's first sub-solution, and no later one
        patches = _restated(element, field, at, path if isinstance(element, SolutionPattern) else None)
        if patches is None:
            return None
        ops += patches
        if path is not None and _may_hold_solution(element):
            path = None
    return ops


def _patched_body(
    pattern: SolutionPattern, template: SolutionTemplate, at: int, path: tuple[str, ...] | None
) -> list[DeltaOp] | None:
    """The patches turning the body ``pattern`` matched into ``template``'s;
    ``None`` when the body does not survive (its ω is not spliced back, or a
    dropped sub-pattern cannot be named) or changes where no path reaches."""
    # each sub-pattern not restated yet, and the path to its body: a field's
    # head names it, unless another sub-pattern shares that head
    left: list[tuple[Pattern, tuple[str, ...] | None]] = []
    if pattern.elements:
        heads = [_head(element) for element in pattern.elements]
        for sub, head in zip(pattern.elements, heads):
            left.append((sub, None if path is None or head is None or heads.count(head) > 1 else (*path, head)))
    rest = pattern.rest
    ops: list[DeltaOp] = []
    added = []
    for element in template.elements:
        if rest is not None and isinstance(element, Splice) and element.name == rest.name:
            rest = None  # the remainder stays where it is
            continue
        for index, (sub, below) in enumerate(left):
            patches = _restated(sub, element, at, below)
            if patches is not None:
                del left[index]
                ops += patches
                break
        else:
            added.append(element)
    if rest is not None:
        return None
    removed = []
    for sub, _below in left:
        item = _rebuilt(sub)
        if item is None:
            return None
        removed.append(item)
    if removed or added:
        if path is None:
            return None
        if removed:
            ops.append(PatchRemove(at, path, removed))
        if added:
            ops.append(PatchAdd(at, path, added))
    return ops


def _head(pattern: Pattern) -> str | None:
    """The head of a ``HEAD : ...`` field pattern (``None`` for anything else)."""
    key = pattern.index_key()
    return key[1] if isinstance(pattern, TuplePattern) and key[0] == "tuple" else None


def _may_hold_solution(pattern: Pattern) -> bool:
    """Whether the atom ``pattern`` matches can be a sub-solution."""
    if isinstance(pattern, Var):
        return pattern.kinds is None or "solution" in pattern.kinds
    if isinstance(pattern, Literal):
        return isinstance(pattern.atom, Subsolution)
    return isinstance(pattern, SolutionPattern)


def _rebuilt(pattern: Pattern) -> Any:
    """A template expanding to (an atom equal to) what ``pattern`` matched; ``None`` if none can."""
    if isinstance(pattern, Var):
        return Ref(pattern.name)
    if isinstance(pattern, Literal):
        return pattern.atom
    if isinstance(pattern, RulePattern):
        return None if pattern.bind_as is None else Ref(pattern.bind_as)
    if not isinstance(pattern, (TuplePattern, SolutionPattern)):
        return None
    elements = [_rebuilt(element) for element in pattern.elements]
    if any(element is None for element in elements):
        return None
    if pattern.rest is not None:
        elements.append(Splice(pattern.rest.name))
    return (TupleTemplate if isinstance(pattern, TuplePattern) else SolutionTemplate)(*elements)
