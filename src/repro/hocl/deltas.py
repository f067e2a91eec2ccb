"""In-place rewrite deltas — copy-on-write rule application.

The classic right-hand side of a rule *rebuilds*: the engine removes every
matched atom and expands fresh product templates, even when most of the
product is structurally identical to what was just consumed.  For the
workflow rules this is quadratic in the data size — ``gw_pass`` re-creates
two whole task tuples (re-inserting and re-indexing every ``IN``/``SRC``
entry) to move one result across one edge.

A :class:`RewriteDelta` describes the same reaction as *patches against the
matched atoms*:

* the matched atoms stay in the solution (same objects, same index entries)
  unless explicitly listed in :attr:`RewriteDelta.consume`;
* :class:`PatchAdd` / :class:`PatchRemove` operations edit the *nested
  solutions* of kept atoms in place — adds and removes proportional to the
  change, not to the field size;
* :attr:`RewriteDelta.produce` templates expand new top-level atoms exactly
  like classic products.

Copy-on-write semantics: a delta never deep-copies a payload.  Atoms added
by a patch are shared by reference (exactly as ``Ref``/``Splice`` expansion
shares them), and the atoms *around* the patch — the tuple spine, the other
fields, the untouched inputs — are not rebuilt: they keep their cached
hashes.  Invalidation rides the existing version
machinery: mutating a nested :class:`~repro.hocl.multiset.Multiset` bumps
its version through every enclosing solution (``Multiset._touch``), which is
precisely the set of caches the patch can have stale — nothing else is
re-hashed or re-expanded.

Kept anchors *stay put*: a kept matched atom keeps its occurrence entry, its
position in the level and in every index bucket, and its holder wiring — a
patch below it already bumps the enclosing versions and re-admits it to the
candidate memories (``Multiset._touch``).  The rebuild path appends its
replacement products at the end of the level instead, so the two paths may
enumerate a level in different orders.  The parity contract, stated once:
same final ``content_hash``, same ``rule_fires``, same ``match_attempts``,
same ``patched``, bit-identical simulated timeline; ``history`` equal as a
multiset, and equal in order wherever every top-level pattern is head-keyed
(all agent-local solutions), because a head bucket holds one field tuple
whose place cannot matter.

Addressing
----------
A patch names its target as ``(at, path)``:

* ``at`` is the index of the left-hand-side pattern whose matched atom
  anchors the patch (``match.consumed[at]``);
* ``path`` is a sequence of field heads walked *into* the anchor: the anchor
  resolves to its directly nested solution (a sub-solution atom resolves to
  itself, a tuple to its sub-solution element), then every head selects the
  ``head : <...>`` field tuple of the current solution and descends into its
  body.  ``gw_pass`` patches ``(0, ("DST",))`` — the ``DST`` body of the
  source task — and ``(1, ("IN",))`` — the ``IN`` body of the destination.

Every delta rule keeps its classic product templates as the *rebuild form*:
the parity oracle (``tests/reduction_reference.py``) applies those instead,
and holds the engine to the contract above.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .atoms import Atom, Subsolution, TupleAtom
from .errors import DeltaError
from .matching import Match
from .multiset import Multiset
from .templates import Call, Compute, _referenced_in_all, expand_template, expand_templates

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .externals import ExternalRegistry

__all__ = ["DeltaOp", "PatchAdd", "PatchRemove", "RewriteDelta"]


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


def _resolve_target(anchor: Atom, path: tuple[str, ...]) -> Multiset:
    """Walk ``path`` (field heads) from ``anchor`` down to the target solution."""
    solution = _anchor_solution(anchor)
    for head in path:
        field = solution.find_tuple(head)
        if field is None:
            raise DeltaError(f"patch path names field {head!r}, absent from {anchor}")
        solution = _anchor_solution(field)
    return solution


def _is_opaque(template: Any) -> bool:
    """Whether expanding ``template`` can read bindings it does not name."""
    if isinstance(template, (Call, Compute)):
        return True
    return any(_is_opaque(element) for element in getattr(template, "elements", ()))


class DeltaOp:
    """One in-place edit of a nested solution of a kept matched atom."""

    __slots__ = ("at", "path")

    def __init__(self, at: int, path: Sequence[str] = ()):
        self.at = int(at)
        self.path = tuple(path)

    def target(self, match: Match) -> Multiset:
        """The solution this op edits, resolved against the match."""
        if not 0 <= self.at < len(match.consumed):
            raise DeltaError(f"patch anchor {self.at} is out of range for the match")
        return _resolve_target(match.consumed[self.at], self.path)

    def apply(
        self, match: Match, externals: "ExternalRegistry | None"
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def expanded(self) -> tuple[Any, ...]:
        """The templates the op expands when applied."""
        return ()

    def referenced_names(self) -> set[str]:
        """Variable names the op reads from the bindings when applied."""
        return _referenced_in_all(self.expanded())


class PatchAdd(DeltaOp):
    """Add the expansion of ``templates`` to the target solution."""

    __slots__ = ("templates",)

    def __init__(self, at: int, path: Sequence[str] = (), templates: Sequence[Any] = ()):
        super().__init__(at, path)
        self.templates = tuple(templates)

    def apply(self, match: Match, externals: "ExternalRegistry | None") -> None:
        target = self.target(match)
        for atom in expand_templates(self.templates, match.bindings, externals):
            target.add(atom)

    def expanded(self) -> tuple[Any, ...]:
        return self.templates

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PatchAdd(at={self.at}, path={self.path!r}, templates={self.templates!r})"


class PatchRemove(DeltaOp):
    """Remove one occurrence of each expanded item from the target solution.

    Items are templates (usually ``Ref``/literals); each expanded atom is
    removed by structural equality — the counterpart of matching it with a
    pattern and not re-emitting it in the rebuild form.
    """

    __slots__ = ("items",)

    def __init__(self, at: int, path: Sequence[str] = (), items: Sequence[Any] = ()):
        super().__init__(at, path)
        self.items = tuple(items)

    def apply(self, match: Match, externals: "ExternalRegistry | None") -> None:
        target = self.target(match)
        for item in self.items:
            for atom in expand_template(item, match.bindings, externals):
                try:
                    target.remove(atom)
                except KeyError as exc:
                    raise DeltaError(
                        f"patch removes {atom}, absent from the target solution"
                    ) from exc

    def expanded(self) -> tuple[Any, ...]:
        return self.items

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PatchRemove(at={self.at}, path={self.path!r}, items={self.items!r})"


class RewriteDelta:
    """The delta-producing product form of a :class:`~repro.hocl.rules.Rule`.

    Parameters
    ----------
    ops:
        In-place edits against kept matched atoms, applied in order.
    consume:
        Indices of left-hand-side patterns whose matched atoms *are* removed
        from the solution (everything not listed is kept in place).
    produce:
        Templates for new top-level atoms, expanded like classic products.
    """

    __slots__ = ("ops", "consume", "produce", "eager")

    def __init__(
        self,
        ops: Sequence[DeltaOp] = (),
        consume: Sequence[int] = (),
        produce: Sequence[Any] = (),
    ):
        self.ops = tuple(ops)
        self.consume = tuple(sorted({int(index) for index in consume}))
        self.produce = tuple(produce)
        for op in self.ops:
            if op.at in self.consume:
                raise DeltaError(f"delta patches pattern {op.at}, which it also consumes")
        #: The names read once the patching has started, which the engine
        #: therefore reads before (an omega is copied out of its solution at its
        #: first read); ``None``: any — a ``Call``/``Compute`` sees every binding.
        opaque = any(_is_opaque(template) for template in self.expanded())
        self.eager = None if opaque else tuple(sorted(self.referenced_names()))

    def apply(
        self,
        match: Match,
        solution: Multiset,
        externals: "ExternalRegistry | None",
    ) -> tuple[list[Atom], list[Atom]]:
        """Apply the delta in place on ``solution``; returns ``(removed, added)``.

        The patches edit the kept atoms' bodies, the atoms matched by the
        ``consume`` patterns leave the level (in pattern order) and the
        ``produce`` expansions join it; nothing else moves.
        """
        for op in self.ops:
            op.apply(match, externals)
        matched = match.consumed
        removed = [matched[index] for index in self.consume]
        for atom in removed:
            solution.remove_identical(atom)
        added = expand_templates(self.produce, match.bindings, externals) if self.produce else []
        for atom in added:
            solution.add(atom)
        return removed, added

    def expanded(self) -> tuple[Any, ...]:
        """Every template the delta expands when applied."""
        return (*(template for op in self.ops for template in op.expanded()), *self.produce)

    def referenced_names(self) -> set[str]:
        """Variable names the delta reads when applied (for static analysis)."""
        return _referenced_in_all(self.expanded())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RewriteDelta(ops={self.ops!r}, consume={self.consume!r}, "
            f"produce={self.produce!r})"
        )
