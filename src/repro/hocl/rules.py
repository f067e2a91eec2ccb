"""Reaction rules — the higher-order citizens of HOCL.

A :class:`Rule` pairs a left-hand side (a sequence of patterns plus an
optional reaction condition) with a right-hand side (a sequence of product
templates).  Rules are themselves atoms, so they live inside the solution
they rewrite, can be matched by other rules (higher order), and can be
injected or removed at run time — which is exactly the mechanism GinFlow uses
for on-the-fly workflow adaptation.

Two firing disciplines exist, mirroring the paper's syntax:

* ``replace`` (``one_shot=False``) — the rule stays in the solution after it
  fires and may fire again (n-shot), like ``gw_pass``.
* ``replace-one`` (``one_shot=True``) — the rule disappears from the solution
  once it has fired, like ``gw_setup`` and ``gw_call``.  The paper relies on
  this to make duplicate message deliveries harmless after an agent recovery.

The ``with X inject M`` sugar of HOCLflow is provided by
:func:`with_inject`: it keeps the matched atoms and adds the injected
ones (it is defined in the paper as ``replace-one X by X, M``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from .atoms import Atom
from .deltas import RewriteDelta
from .errors import RuleError
from .matching import Match, compiled_search
from .patterns import BindingView, as_pattern
from .templates import expand_templates, template_referenced_names

__all__ = ["BindingView", "Rule", "replace", "replace_one", "with_inject"]


#: Type of reaction conditions: a predicate over the binding environment.
Condition = Callable[[BindingView], bool]

#: Type of effect hooks invoked when a rule fires: a function of the bindings
#: alone, returning the values the firing emits (or ``None``).  The engine
#: collects them in :attr:`~repro.hocl.engine.ReductionReport.effects`.
EffectHook = Callable[[BindingView], "Iterable[Any] | None"]


def _guarded(condition: Condition) -> Condition:
    """``condition`` as the matcher calls it.

    A condition that cannot even be evaluated on the candidate atoms (e.g.
    comparing an integer with a rule) simply means the reaction is not
    possible — mirror HOCL's typed semantics by treating it as a non-match
    rather than an error.
    """

    def guarded(bindings: BindingView) -> bool:
        try:
            return bool(condition(bindings))
        except (TypeError, KeyError, AttributeError):
            return False

    return guarded


class Rule(Atom):
    """A reaction rule, itself an atom of the solution.

    Parameters
    ----------
    name:
        Rule name (``gw_setup``, ``trigger_adapt``...).  Names are what
        higher-order patterns match on, and what diagnostics print.
    patterns:
        Left-hand-side patterns; each must match a distinct atom.
    products:
        Right-hand-side templates (see :mod:`repro.hocl.templates`); plain
        values are literals.
    condition:
        Optional reaction condition on the binding environment.
    one_shot:
        ``True`` for ``replace-one`` rules, removed after firing.
    keep_matched:
        ``True`` for ``with ... inject`` rules: the matched atoms are put
        back in addition to the products.
    effect:
        Optional hook called with the bindings every time the rule fires,
        before the solution is rewritten (so an omega it reads is the
        pre-reaction remainder).  It returns the values the firing emits (an
        iterable, or ``None``) and the engine appends them, in firing order,
        to the ``effects`` of the :class:`~repro.hocl.engine.ReductionReport`
        of *that* ``reduce`` call.  A hook holds no sink of its own and is a
        pure function of its bindings, so one rule object can serve many
        solutions reduced concurrently (the agents of a run share theirs)
        without their emissions ever mixing.
    priority:
        Rules with a higher priority are tried first by the engine; used by
        GinFlow to favour adaptation rules over regular progress when both
        are enabled.
    delta:
        Optional :class:`~repro.hocl.deltas.RewriteDelta`: the in-place,
        copy-on-write form of the same reaction.  When present, the engine's
        engine applies it instead of expanding ``products`` — matched atoms
        stay in the solution (minus ``delta.consume``) and the delta's
        patches edit their nested solutions directly.  ``products`` must
        still describe the equivalent full rebuild: the reference semantics
        the parity oracle (``tests/reduction_reference.py``) checks the delta
        against.
    """

    __slots__ = (
        "name",
        "patterns",
        "products",
        "condition",
        "one_shot",
        "keep_matched",
        "effect",
        "priority",
        "delta",
        "pattern_index_keys",
        "guarded_condition",
        "search",
        "_index_keys",
    )
    kind = "rule"

    def __init__(
        self,
        name: str,
        patterns: Sequence[Any],
        products: Sequence[Any] = (),
        condition: Condition | None = None,
        one_shot: bool = False,
        keep_matched: bool = False,
        effect: EffectHook | None = None,
        priority: int = 0,
        delta: RewriteDelta | None = None,
    ):
        if not name:
            raise RuleError("rules require a non-empty name")
        if not patterns:
            raise RuleError(f"rule {name!r} has an empty left-hand side")
        if delta is not None:
            if keep_matched:
                raise RuleError(
                    f"rule {name!r} mixes keep_matched with a delta; a delta keeps "
                    "every matched atom not listed in its consume set already"
                )
            for index in set(delta.consume) | {op.at for op in delta.ops}:
                if not 0 <= index < len(patterns):
                    raise RuleError(
                        f"rule {name!r} delta addresses pattern {index}, but the "
                        f"left-hand side has {len(patterns)} patterns"
                    )
        self.name = name
        self.patterns = tuple(as_pattern(p) for p in patterns)
        self.products = tuple(products)
        self.condition = condition
        self.one_shot = bool(one_shot)
        self.keep_matched = bool(keep_matched)
        self.effect = effect
        self.priority = int(priority)
        self.delta = delta
        #: Per-pattern multiset index keys, precomputed once (rules are
        #: immutable).  The engine consults them to skip rules that cannot
        #: possibly match — e.g. after a reaction, only rules whose head
        #: symbols are present in the solution are tried again.
        self.pattern_index_keys = tuple(p.index_key() for p in self.patterns)
        #: The condition as the matcher calls it, built once like the keys.
        self.guarded_condition = _guarded(condition) if condition is not None else None
        #: The left-hand side's search (generated at its first use), shared by every rule built on the same pattern objects.
        self.search = compiled_search(self.patterns)
        self._index_keys = None  # lazily filled by repro.hocl.multiset.atom_index_keys

    # -------------------------------------------------------------- products
    def produce(self, match: Match, externals: Any = None) -> list[Atom]:
        """Atoms produced by firing the rule on ``match`` (not yet inserted)."""
        produced: list[Atom] = []
        if self.keep_matched:
            produced.extend(match.consumed)
        produced.extend(expand_templates(self.products, match.bindings, externals))
        return produced

    # --------------------------------------------------------- introspection
    def bound_variables(self) -> set[str]:
        """Variable names bound by the left-hand side when the rule matches."""
        names: set[str] = set()
        for pattern in self.patterns:
            names |= pattern.bound_names()
        return names

    def omega_variables(self) -> set[str]:
        """Left-hand-side variable names bound to *lists* of atoms (omegas)."""
        names: set[str] = set()
        for pattern in self.patterns:
            names |= pattern.omega_names()
        return names

    def referenced_variables(self) -> set[str]:
        """Variable names the declared products read when the rule fires.

        Covers both product forms: the rebuild templates and, when present,
        the delta's patches and produce templates.
        :class:`~repro.hocl.templates.Compute` products are opaque and
        contribute nothing here.
        """
        names: set[str] = set()
        for product in self.products:
            names |= template_referenced_names(product)
        if self.delta is not None:
            names |= self.delta.referenced_names()
        return names

    # -------------------------------------------------------------- identity
    def copy(self) -> "Rule":
        return self  # rules are immutable; sharing is safe

    def __eq__(self, other: object) -> bool:
        # Rules compare by identity-or-name: two rules built from the same
        # definition (same name) are interchangeable inside a solution.  This
        # matches the paper's usage where e.g. `gw_setup` denotes *the* setup
        # rule regardless of the sub-solution holding it.  The hash below
        # uses the same key, so equal rules hash equal — including the
        # one-shot `with_inject` variants a recovery re-injects.
        if self is other:
            return True
        if not isinstance(other, Rule):
            return NotImplemented
        return other.name == self.name

    def __hash__(self) -> int:
        return hash(("Rule", self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        mode = "replace-one" if self.one_shot else "replace"
        return f"Rule({self.name!r}, {mode}, {len(self.patterns)} patterns)"

    def __str__(self) -> str:
        return self.name


def replace(
    name: str,
    patterns: Sequence[Any],
    products: Sequence[Any],
    condition: Condition | None = None,
    **kwargs: Any,
) -> Rule:
    """Convenience constructor for an n-shot ``replace`` rule."""
    return Rule(name, patterns, products, condition=condition, one_shot=False, **kwargs)


def replace_one(
    name: str,
    patterns: Sequence[Any],
    products: Sequence[Any],
    condition: Condition | None = None,
    **kwargs: Any,
) -> Rule:
    """Convenience constructor for a one-shot ``replace-one`` rule."""
    return Rule(name, patterns, products, condition=condition, one_shot=True, **kwargs)


def with_inject(
    name: str,
    patterns: Sequence[Any],
    inject: Sequence[Any],
    condition: Condition | None = None,
    **kwargs: Any,
) -> Rule:
    """Build a ``with X inject M`` rule (one-shot, keeps the matched atoms)."""
    return Rule(name, patterns, inject, condition=condition, one_shot=True, keep_matched=True, **kwargs)
