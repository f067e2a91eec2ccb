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

from typing import Any, Callable, Iterable, Mapping, Sequence

from .atoms import Atom, to_atom
from .deltas import RewriteDelta, derive_delta
from .errors import RuleError
from .matching import compiled_search
from .patterns import BindingView, as_pattern
from .templates import template_referenced_names

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


def _given_atoms(given: Mapping[str, Any]) -> dict[str, Any]:
    """``given`` as a match binds it: a list stays a list of atoms (an omega
    binding, which ``Splice`` reads), any other value becomes one atom."""
    return {
        name: [to_atom(item) for item in value] if isinstance(value, list) else to_atom(value)
        for name, value in given.items()
    }


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
    given:
        Variables bound before the left-hand side is matched (values are
        coerced to atoms, a list to a list of atoms, read by ``Splice``): the
        context an interpreter supplies, as the enclosing task is to the
        paper's ``gw_call``.  Products, condition and effect read them like
        pattern-bound variables; :meth:`bind` makes such a rule a sibling of
        one written without them.

    The engine fires the rule through :attr:`delta`, the in-place form its
    two sides imply.
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
        "given",
        "pattern_index_keys",
        "guarded_condition",
        "search",
        "_delta",
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
        given: Mapping[str, Any] | None = None,
    ):
        if not name:
            raise RuleError("rules require a non-empty name")
        if not patterns:
            raise RuleError(f"rule {name!r} has an empty left-hand side")
        self.name = name
        self.patterns = tuple(as_pattern(p) for p in patterns)
        self.products = tuple(products)
        self.condition = condition
        self.one_shot = bool(one_shot)
        self.keep_matched = bool(keep_matched)
        self.effect = effect
        self.priority = int(priority)
        #: What every match starts from (the generated search's ``initial_bindings``).
        self.given: dict[str, Any] = _given_atoms(given or {})
        #: Per-pattern multiset index keys, precomputed once (rules are
        #: immutable).  The engine consults them to skip rules that cannot
        #: possibly match — e.g. after a reaction, only rules whose head
        #: symbols are present in the solution are tried again.
        self.pattern_index_keys = tuple(p.index_key() for p in self.patterns)
        #: The condition as the matcher calls it, built once like the keys.
        self.guarded_condition = _guarded(condition) if condition is not None else None
        #: The left-hand side's search (generated at its first use), shared by every rule built on the same pattern objects.
        self.search = compiled_search(self.patterns)
        self._delta: RewriteDelta | None = None  # derived at the first fire
        self._index_keys = None  # lazily filled by repro.hocl.multiset.atom_index_keys

    @property
    def delta(self) -> RewriteDelta:
        """How the engine fires the rule: the in-place form of its two sides
        (:func:`~repro.hocl.deltas.derive_delta`), derived once, when first asked."""
        if self._delta is None:
            self._delta = derive_delta(self.patterns, self.products, self.keep_matched)
        return self._delta

    def bind(self, name: str | None = None, **given: Any) -> "Rule":
        """A sibling of this rule, called ``name`` (this rule's name by
        default), whose matches also start from ``given``.

        It is this rule in every other respect and shares its objects: the
        patterns and their compiled search, the products, the condition, the
        effect and the :attr:`delta`, derived here, once, on this rule.  One
        rule written without a context literal thus serves every context:
        ``make_gw_call(task)`` is the centralised ``gw_call`` bound to
        ``task``, and ``make_add_dst(plan, source)`` the one ``add_dst`` bound
        to the entry tasks ``new`` that ``source`` now feeds.
        """
        sibling = object.__new__(type(self))
        for slot in Rule.__slots__:
            setattr(sibling, slot, getattr(self, slot))
        sibling._delta = self.delta
        sibling.given = {**self.given, **_given_atoms(given)}
        if name is not None:
            sibling.name = name
            sibling._index_keys = None  # the rule's bucket is its name
        return sibling

    # --------------------------------------------------------- introspection
    def bound_variables(self) -> set[str]:
        """Variable names bound when the rule matches: its :attr:`given` ones
        and those the left-hand side binds."""
        names: set[str] = set(self.given)
        for pattern in self.patterns:
            names |= pattern.bound_names()
        return names

    def omega_variables(self) -> set[str]:
        """Variable names bound to *lists* of atoms: the left-hand side's omegas
        and the :attr:`given` lists."""
        names = {name for name, value in self.given.items() if isinstance(value, list)}
        for pattern in self.patterns:
            names |= pattern.omega_names()
        return names

    def referenced_variables(self) -> set[str]:
        """Variable names the products read when the rule fires."""
        names: set[str] = set()
        for product in self.products:
            names |= template_referenced_names(product)
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
