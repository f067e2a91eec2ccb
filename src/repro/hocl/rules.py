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

import operator
from typing import Any, Callable, Iterable, Mapping, Sequence

from .atoms import Atom, Symbol, from_atom, to_atom
from .deltas import Reaction, RewriteDelta, RuleSummary, derive_delta
from .errors import PatternError, RuleError
from .patterns import BindingView, Omega, Pattern, Source, as_pattern
from .templates import Ref

__all__ = ["BindingView", "Compare", "Rule", "replace", "replace_one", "with_inject"]


#: Type of effect hooks invoked when a rule fires: a function whose positional
#: parameters name the variables it reads, called with their values
#: (:meth:`BindingView.value`), returning the values the firing emits (or
#: ``None``).  The engine collects them in
#: :attr:`~repro.hocl.engine.ReductionReport.effects`.
EffectHook = Callable[..., "Iterable[Any] | None"]


_ORDERS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _ordered(op: str, left: Atom, right: Atom) -> bool:
    """``left op right`` on the plain values; values of no common order are no match."""
    try:
        return bool(_ORDERS[op](from_atom(left), from_atom(right)))
    except TypeError:
        return False


class Compare:
    """A reaction condition: ``left op right``, each side a :class:`~repro.hocl.templates.Ref`
    to a variable or a literal atom (a plain value is coerced).

    ``==`` and ``!=`` are atom equality, the one ``Literal`` patterns and the
    multiset use; ``<``, ``<=``, ``>`` and ``>=`` compare the plain values
    (:func:`~repro.hocl.atoms.from_atom`), and values of no common order are
    no match.  So is a side naming a variable that is neither bound nor
    given.  Nothing calls it: the search writes it inline (:meth:`emit`).
    """

    __slots__ = ("op", "left", "right", "names")

    def __init__(self, op: str, left: Any, right: Any):
        if op not in ("==", "!=", *_ORDERS):
            raise RuleError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left, self.right = (side if isinstance(side, Ref) else to_atom(side) for side in (left, right))
        #: the variables it reads
        self.names = tuple(dict.fromkeys(side.name for side in (self.left, self.right) if isinstance(side, Ref)))

    def refuse(self, omegas: Iterable[str]) -> None:
        """Raise when a side reads one of ``omegas`` (a name bound to a list)."""
        if compared := sorted(set(self.names).intersection(omegas)):
            raise RuleError(f"a condition compares atoms, not the omega binding {compared[0]!r}")

    def emit(self, out: Source) -> None:
        """Write the line of the search ``out`` that drops the match being
        built (past the last pattern) when the condition does not hold."""
        unbound, sides = [], []
        for side in (self.left, self.right):
            if not isinstance(side, Ref):
                sides.append(out.const(side))
                continue
            sides.append(held := out.held(side.name))
            if side.name not in out.bound:  # given, or not at all
                unbound.append(f"{held} is U")
        left, right = sides
        if self.op in _ORDERS:
            fails = f"not {out.const(_ordered)}({self.op!r}, {left}, {right})"
        else:
            if isinstance(self.left, Symbol):  # the symbol on the right
                left, right = right, left
            if isinstance(self.left, Symbol) or isinstance(self.right, Symbol):
                # equal to a symbol: that object, or a symbol of its name — no call
                same = f"{left} is {right} or isinstance({left}, Symbol) and {left}.name == {right}.name"
            else:
                same = f"{left} is {right} or {left} == {right}"
            fails = f"not ({same})" if self.op == "==" else same
        out.line(f"if {' or '.join([*unbound, fails])}: continue")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Compare({self.op!r}, {self.left!r}, {self.right!r})"


def _refuse(pattern: Pattern) -> None:
    """Raise, when the left-hand side is built, what no search of it could run."""
    if isinstance(pattern, Omega):
        raise PatternError("an Omega captures the remainder of a solution: it cannot match a single atom")
    if type(pattern).emit is Pattern.emit:
        raise NotImplementedError(f"{type(pattern).__name__} defines no emit()")
    for element in getattr(pattern, "elements", ()):
        _refuse(element)


def _given_atoms(given: Mapping[str, Any], condition: Compare | None) -> dict[str, Any]:
    """``given`` as a match binds it: a list stays a list of atoms (an omega
    binding, which ``Splice`` reads and ``condition`` may not), any other value becomes one atom."""
    if condition is not None:
        condition.refuse(name for name, value in given.items() if isinstance(value, list))
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
        Optional reaction condition, a :class:`Compare`; anything else is
        refused, as is a side reading an omega binding.
    one_shot:
        ``True`` for ``replace-one`` rules, removed after firing.
    keep_matched:
        ``True`` for ``with ... inject`` rules: the matched atoms are put
        back in addition to the products.
    effect:
        Optional hook called every time the rule fires, before the solution
        is rewritten (so an omega it reads is the pre-reaction remainder),
        with the values (:meth:`BindingView.value`) of the variables its
        positional parameters name — read off its code once, here.  It
        returns the values the firing emits (an iterable, or ``None``) and
        the engine appends them, in firing order, to the ``effects`` of the
        :class:`~repro.hocl.engine.ReductionReport` of *that* ``reduce``
        call.  A hook holds no sink of its own and is a pure function of its
        arguments, so one rule object can serve many solutions reduced
        concurrently (the agents of a run share theirs) without their
        emissions ever mixing.
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
    two sides imply, where its :attr:`reaction` finds a match; :attr:`summary`
    is what it binds, reads, matches and can add.
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
        "effect_names",
        "reaction",
        "_delta",
        "_summary",
        "_index_keys",
    )
    kind = "rule"

    def __init__(
        self,
        name: str,
        patterns: Sequence[Any],
        products: Sequence[Any] = (),
        condition: Compare | None = None,
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
        if condition is not None and not isinstance(condition, Compare):
            raise RuleError(f"rule {name!r}: a condition is a Compare, not {condition!r}")
        code = getattr(effect, "__code__", None)
        if effect is not None and code is None:
            raise RuleError(f"rule {name!r}: an effect is a Python function, not {effect!r}")
        self.name = name
        self.patterns = tuple(as_pattern(p) for p in patterns)
        for pattern in self.patterns:
            _refuse(pattern)
        if condition is not None:
            condition.refuse(name for pattern in self.patterns for name in pattern.omega_names())
        self.products = tuple(products)
        self.condition = condition
        self.one_shot = bool(one_shot)
        self.keep_matched = bool(keep_matched)
        self.effect = effect
        #: the variables the effect reads: its positional parameters
        self.effect_names: tuple[str, ...] = () if code is None else code.co_varnames[: code.co_argcount]
        self.priority = int(priority)
        #: What every match starts from (the generated search's ``initial_bindings``).
        self.given: dict[str, Any] = _given_atoms(given or {}, condition)
        #: Per-pattern multiset index keys, precomputed once (rules are
        #: immutable).  The engine consults them to skip rules that cannot
        #: possibly match — e.g. after a reaction, only rules whose head
        #: symbols are present in the solution are tried again.
        self.pattern_index_keys = tuple(p.index_key() for p in self.patterns)
        #: The rule as the engine tries it: its search and its fire in one
        #: function, generated at its first reaction, shared by :meth:`bind` siblings.
        self.reaction = Reaction()
        self._delta: RewriteDelta | None = None  # derived at the first fire
        self._summary: RuleSummary | None = None  # derived when first asked
        self._index_keys = None  # lazily filled by repro.hocl.multiset.atom_index_keys

    @property
    def delta(self) -> RewriteDelta:
        """How the engine fires the rule: the in-place form of its two sides
        (:func:`~repro.hocl.deltas.derive_delta`), derived once, when first asked."""
        if self._delta is None:
            self._delta = derive_delta(self.patterns, self.products, self.keep_matched)
        return self._delta

    @property
    def summary(self) -> RuleSummary:
        """What the rule binds, reads, matches and can add
        (:class:`~repro.hocl.deltas.RuleSummary`), derived once, when first asked."""
        if self._summary is None:
            self._summary = RuleSummary(self.patterns, self.products, self.condition, self.effect_names, self.delta)
        return self._summary

    def bind(self, name: str | None = None, **given: Any) -> "Rule":
        """A sibling of this rule, called ``name`` (this rule's name by
        default), whose matches also start from ``given``.

        It is this rule in every other respect and shares its objects: the
        patterns, the reaction, the products, the condition, the
        effect, the :attr:`delta` and the :attr:`summary`, derived here, once,
        on this rule.  One rule written without a context literal thus serves
        every context: ``make_gw_call(task)`` is the centralised ``gw_call``
        bound to ``task``, and ``make_add_dst(plan, source)`` the one
        ``add_dst`` bound to the entry tasks ``new`` that ``source`` now feeds.
        """
        sibling = object.__new__(type(self))
        for slot in Rule.__slots__:
            setattr(sibling, slot, getattr(self, slot))
        sibling._delta = self.delta
        sibling._summary = self.summary
        sibling.given = {**self.given, **_given_atoms(given, self.condition)}
        if name is not None:
            sibling.name = name
            sibling._index_keys = None  # the rule's bucket is its name
        return sibling

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
    condition: Compare | None = None,
    **kwargs: Any,
) -> Rule:
    """Convenience constructor for an n-shot ``replace`` rule."""
    return Rule(name, patterns, products, condition=condition, one_shot=False, **kwargs)


def replace_one(
    name: str,
    patterns: Sequence[Any],
    products: Sequence[Any],
    condition: Compare | None = None,
    **kwargs: Any,
) -> Rule:
    """Convenience constructor for a one-shot ``replace-one`` rule."""
    return Rule(name, patterns, products, condition=condition, one_shot=True, **kwargs)


def with_inject(
    name: str,
    patterns: Sequence[Any],
    inject: Sequence[Any],
    condition: Compare | None = None,
    **kwargs: Any,
) -> Rule:
    """Build a ``with X inject M`` rule (one-shot, keeps the matched atoms)."""
    return Rule(name, patterns, inject, condition=condition, one_shot=True, keep_matched=True, **kwargs)
