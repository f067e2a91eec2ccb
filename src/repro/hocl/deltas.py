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
  sub-pattern it restates a :class:`PatchAdd`, and a restated element is
  patched in turn, one level down;
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
A delta edits by the sites the match recorded (:attr:`Match.sites
<repro.hocl.matching.Match.sites>`): the entry each top-level pattern took,
then, per solution pattern in the walk of
:func:`~repro.hocl.patterns.solution_patterns`, the solution it matched and
the entry each of its elements took.  :func:`derive_delta` numbers the same
slots by the same walk.  A :class:`PatchRemove` unlinks the entries its
dropped sub-patterns took from the solution in its slot — the matched
occurrences, not equal ones — a :class:`PatchAdd` adds to that solution, and
a consumed atom leaves through its top-level entry.  ``gw_pass`` (local:
``RES : <res, ωres>, DST : <tj, ωdst>``, sites ``e_RES, e_DST, <RES>, e_res,
<DST>, e_tj``) derives ``PatchRemove(4, (5,))``.

A patch edits a solution every holder sees.  So a firing in which a matched
solution on the way to an edited one has more than one holder (``Ref`` /
``Splice`` expansion shares atoms) takes the rule's rebuild form instead —
everything matched consumed, every product expanded, as the rule reads to
the letter.  The holders are read off the sites (:attr:`RewriteDelta.guards`)
before anything moves, so such a firing changes nothing in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .atoms import Atom
from .matching import Match
from .multiset import Multiset
from .patterns import Bindings, Literal, Pattern, SolutionPattern, TuplePattern, Var, solution_patterns
from .templates import (
    Call,
    Ref,
    SolutionTemplate,
    Splice,
    TupleTemplate,
    _referenced_in_all,
    expand_templates,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .externals import ExternalRegistry

__all__ = ["derive_delta"]


def _is_opaque(template: Any) -> bool:
    """Whether expanding ``template`` can read bindings it does not name."""
    if isinstance(template, Call):
        return True
    return any(map(_is_opaque, getattr(template, "elements", ())))


def _span(pattern: Pattern) -> int:
    """How many sites the solution patterns in ``pattern`` record."""
    return sum(1 + len(found.elements) for found in solution_patterns(pattern))


class DeltaOp:
    """One in-place edit of the solution a match recorded at ``sites[site]``."""

    __slots__ = ("site",)

    def __init__(self, site: int):
        self.site = int(site)

    def apply(
        self, sites: tuple[Any, ...], bindings: Bindings, externals: "ExternalRegistry | None"
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def expanded(self) -> tuple[Any, ...]:
        """The templates the op expands when applied."""
        return ()


class PatchAdd(DeltaOp):
    """Add the expansion of ``templates`` to the solution at ``site``."""

    __slots__ = ("templates",)

    def __init__(self, site: int, templates: Sequence[Any] = ()):
        super().__init__(site)
        self.templates = tuple(templates)

    def apply(self, sites: tuple[Any, ...], bindings: Bindings, externals: "ExternalRegistry | None") -> None:
        target = sites[self.site]
        for atom in expand_templates(self.templates, bindings, externals):
            target.add(atom)

    def expanded(self) -> tuple[Any, ...]:
        return self.templates

    def __repr__(self) -> str:
        return f"PatchAdd({self.site}, templates={self.templates!r})"


class PatchRemove(DeltaOp):
    """Unlink, from the solution at ``site``, the entries at ``entries``: the
    occurrences the dropped sub-patterns took — the counterpart of matching
    an atom with a pattern and not re-emitting it in the products."""

    __slots__ = ("entries",)

    def __init__(self, site: int, entries: Sequence[int] = ()):
        super().__init__(site)
        self.entries = tuple(entries)

    def apply(self, sites: tuple[Any, ...], bindings: Bindings, externals: "ExternalRegistry | None") -> None:
        target = sites[self.site]
        for entry in self.entries:
            target._remove_entry(sites[entry])

    def __repr__(self) -> str:
        return f"PatchRemove({self.site}, entries={self.entries!r})"


class RewriteDelta:
    """The in-place form of a :class:`~repro.hocl.rules.Rule` (see :func:`derive_delta`).

    Parameters
    ----------
    ops:
        In-place edits of matched solutions, applied in order.
    consume:
        Indices of left-hand-side patterns whose matched atoms are removed
        from the solution (everything not listed is kept in place).
    produce:
        Templates for new top-level atoms.
    rebuild:
        The rule's products, expanded whole (everything matched consumed) by
        a firing in which a guarded solution has more than one holder.
    guards:
        The sites of the matched solutions on the way to an edited one,
        edited ones included: each must have one holder for the ops to land.
    """

    __slots__ = ("ops", "consume", "produce", "rebuild", "guards", "eager")

    def __init__(
        self,
        ops: Sequence[DeltaOp] = (),
        consume: Sequence[int] = (),
        produce: Sequence[Any] = (),
        rebuild: Sequence[Any] = (),
        guards: Sequence[int] = (),
    ):
        self.ops = tuple(ops)
        self.consume = tuple(consume)
        self.produce = tuple(produce)
        self.rebuild = tuple(rebuild)
        self.guards = tuple(guards)
        #: The names read once the patching has started, which the engine
        #: therefore reads before (an omega is copied out of its solution at its
        #: first read); ``None``: any — a ``Call`` sees every binding.
        expanded = list(self.produce)
        for op in self.ops:
            expanded += op.expanded()
        self.eager = None if any(map(_is_opaque, expanded)) else tuple(sorted(_referenced_in_all(expanded)))

    def apply(
        self,
        match: Match,
        solution: Multiset,
        externals: "ExternalRegistry | None",
    ) -> tuple[list[Atom], list[Atom]]:
        """Apply the delta in place on ``solution``; returns ``(removed, added)``.

        The ``produce`` templates expand first (a raising one leaves the
        solution as it was), then the patches edit the matched solutions, the
        atoms matched by the ``consume`` patterns leave the level through
        their entries (in pattern order) and the expansions join it; nothing
        else moves.  Where a guarded solution has more than one holder, the
        ``rebuild`` products expand and everything matched leaves instead.
        """
        sites = match.sites
        for guard in self.guards:
            if len(sites[guard]._parents) > 1:
                added = expand_templates(self.rebuild, match.bindings, externals)
                removed = match.consumed
                gone: Sequence[int] = range(len(removed))
                break
        else:
            added = expand_templates(self.produce, match.bindings, externals) if self.produce else []
            for op in self.ops:
                op.apply(sites, match.bindings, externals)
            matched = match.consumed
            removed = [matched[index] for index in self.consume]
            gone = self.consume
        for index in gone:
            solution._remove_entry(sites[index])
        for atom in added:
            solution.add(atom)
        return removed, added

    def __repr__(self) -> str:
        return (
            f"RewriteDelta(ops={self.ops!r}, consume={self.consume!r}, produce={self.produce!r}, guards={self.guards!r})"
        )


def derive_delta(patterns: Sequence[Pattern], products: Sequence[Any], keep_matched: bool = False) -> RewriteDelta:
    """The in-place form of the rule ``patterns -> products`` (see the module docstring).

    Each product, in order, keeps the first matched atom not kept yet that it
    restates; the patches that restatement needs join ``ops``.
    """
    if keep_matched:
        return RewriteDelta(produce=products)
    firsts: list[int] = []  # the site of each pattern's first solution pattern
    site = len(patterns)
    for pattern in patterns:
        firsts.append(site)
        site += _span(pattern)
    chains: dict[int, tuple[int, ...]] = {}
    kept: set[int] = set()
    ops: list[DeltaOp] = []
    produce = []
    for product in products:
        for at, pattern in enumerate(patterns):
            patches = None if at in kept else _restated(pattern, product, firsts[at], (), chains)
            if patches is not None:
                kept.add(at)
                ops += patches
                break
        else:
            produce.append(product)
    consume = [at for at in range(len(patterns)) if at not in kept]
    guards = list(dict.fromkeys(guard for op in ops for guard in chains[op.site]))
    return RewriteDelta(ops, consume, produce, products if ops else (), guards)


def _restated(
    pattern: Pattern, template: Any, first: int, above: tuple[int, ...], chains: dict[int, tuple[int, ...]]
) -> list[DeltaOp] | None:
    """The patches turning the atom ``pattern`` matched into ``template``'s
    expansion; ``None`` when ``template`` does not restate it.

    ``first`` is the site of the first solution pattern in ``pattern``,
    ``above`` the sites of the matched solutions enclosing it; ``chains``
    takes, per edited solution, the sites from the outermost down to it.
    """
    if isinstance(pattern, Var):
        return [] if isinstance(template, Ref) and template.name == pattern.name else None
    if isinstance(pattern, Literal):  # a symbol is interned: identity first
        return [] if template is pattern.atom or isinstance(template, Atom) and template == pattern.atom else None
    if isinstance(pattern, SolutionPattern):
        return _patched_body(pattern, template, first, above, chains) if isinstance(template, SolutionTemplate) else None
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
        patches = _restated(element, field, first, above, chains)
        if patches is None:
            return None
        ops += patches
        first += _span(element)
    return ops


def _patched_body(
    pattern: SolutionPattern,
    template: SolutionTemplate,
    site: int,
    above: tuple[int, ...],
    chains: dict[int, tuple[int, ...]],
) -> list[DeltaOp] | None:
    """The patches turning the body ``pattern`` matched (at ``site``) into
    ``template``'s; ``None`` when the body does not survive: its ω is not
    spliced back."""
    above = (*above, site)
    # each sub-pattern not restated yet: the site of its entry, and of its first solution pattern
    left: list[tuple[int, Pattern, int]] = []
    first = site + 1 + len(pattern.elements)
    for entry, sub in enumerate(pattern.elements, site + 1):
        left.append((entry, sub, first))
        first += _span(sub)
    rest = pattern.rest
    ops: list[DeltaOp] = []
    added = []
    for element in template.elements:
        if rest is not None and isinstance(element, Splice) and element.name == rest.name:
            rest = None  # the remainder stays where it is
            continue
        for index, (_entry, sub, below) in enumerate(left):
            patches = _restated(sub, element, below, above, chains)
            if patches is not None:
                del left[index]
                ops += patches
                break
        else:
            added.append(element)
    if rest is not None:
        return None
    if left:
        ops.append(PatchRemove(site, [entry for entry, _sub, _below in left]))
    if added:
        ops.append(PatchAdd(site, added))
    if left or added:
        chains[site] = above
    return ops
