"""Static checks over HOCL rules in the context of a target solution.

Each check inspects :class:`~repro.hocl.rules.Rule` objects *without running
a reduction*, through the one model of a rule the engine derives beside its
delta, :attr:`Rule.summary <repro.hocl.rules.Rule.summary>`
(:class:`~repro.hocl.deltas.RuleSummary`): the names a rule binds and reads,
the index keys it matches and those it can add, per depth.  The failure class
they target is the silent one: a rule whose product references an unbound
variable raises only when it finally fires, a rule whose index key can never
appear simply never fires, and both look exactly like a hang at enactment time.

Checks receive a :class:`RuleScope`: the rules of one solution (a task
sub-solution or the global solution) together with that solution's initial
contents and the index keys the outside world may inject into it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.hocl.multiset import Multiset, atom_index_keys
from repro.hocl.rules import Rule

from .findings import Finding, Severity
from .registry import register_check

__all__ = ["RuleScope"]


@dataclass
class RuleScope:
    """The unit of rule analysis: one solution's rules plus its context.

    Attributes
    ----------
    label:
        Where the rules live (``"task 'T1'"``, ``"global solution"``).
    rules:
        The rules of the solution, in engine insertion order.
    solution:
        The solution's initial contents (used by the dead-index-key check);
        ``None`` disables content-dependent checks.
    injected_keys:
        Index keys the outside world can add to the solution — e.g. the
        ``ADAPT`` marker a global ``trigger_adapt`` pushes into task
        sub-solutions, or atoms delivered by the message layer.
    injected_wildcard:
        ``True`` when the outside world may inject arbitrary atoms, which
        makes the dead-index-key check vacuous for this scope.
    """

    label: str
    rules: tuple[Rule, ...]
    solution: Multiset | None = None
    injected_keys: frozenset[Any] = field(default_factory=frozenset)
    injected_wildcard: bool = False


# ---------------------------------------------------------------- the checks
@register_check(
    "rule-unbound-product",
    kind="rule",
    severity=Severity.ERROR,
    description="product templates must only reference variables the patterns bind",
)
def check_unbound_product(scope: RuleScope) -> Iterator[Finding]:
    """Products referencing unbound variables raise only when the rule fires."""
    for rule in scope.rules:
        summary = rule.summary
        unbound = sorted((summary.reads["ref"] | summary.reads["splice"]) - summary.bound(rule.given))
        if unbound:
            names = ", ".join(repr(name) for name in unbound)
            yield Finding(
                check="rule-unbound-product",
                severity=Severity.ERROR,
                subject=rule.name,
                message=f"rule {rule.name!r} products reference {names}, "
                "which no pattern binds",
                fix_hint=f"bind {names} in the rule's patterns or drop the reference",
                location=scope.label,
            )


@register_check(
    "rule-unbound-condition",
    kind="rule",
    severity=Severity.WARNING,
    description="conditions and effects must only read variables the patterns bind",
)
def check_unbound_condition(scope: RuleScope) -> Iterator[Finding]:
    """An unbound condition variable makes the rule silently never fire.

    A condition side naming a variable that is neither bound nor given is
    no match, so the rule just never applies — the exact
    hang-until-timeout class; an effect reading one raises when it fires.
    """
    for rule in scope.rules:
        summary = rule.summary
        bound = summary.bound(rule.given)
        for role in ("condition", "effect"):
            unbound = sorted(summary.reads[role] - bound)
            if unbound:
                names = ", ".join(repr(name) for name in unbound)
                yield Finding(
                    check="rule-unbound-condition",
                    severity=Severity.WARNING,
                    subject=rule.name,
                    message=f"rule {rule.name!r} {role} reads {names}, "
                    "which no pattern binds",
                    fix_hint=f"bind {names} in the rule's patterns or stop reading it "
                    f"in the {role}",
                    location=scope.label,
                )


@register_check(
    "rule-dead-index-key",
    kind="rule",
    severity=Severity.ERROR,
    description="every pattern index key must be reachable in the target solution",
)
def check_dead_index_key(scope: RuleScope) -> Iterator[Finding]:
    """A rule whose index key can never appear is registered but structurally dead.

    A key is *live* when the initial solution contains it, when a rule of
    the scope can add it at the scope's level (depth 0 of its summary), or
    when the outside world can inject it (``scope.injected_keys``).  The
    engine's plausibility filter skips rules with no candidates in their
    buckets, so a dead key means the rule never even reaches the matcher.
    """
    if scope.solution is None or scope.injected_wildcard:
        return
    live: set[Any] = set(scope.injected_keys)
    for atom in scope.solution.atoms():
        live.update(atom_index_keys(atom))
    for rule in scope.rules:
        added, anything = rule.summary.added(0, rule.given)
        if anything:
            return
        live |= added
    for rule in scope.rules:
        dead = [key for key in rule.pattern_index_keys if key is not None and key not in live]
        if dead:
            rendered = ", ".join(f"{kind}:{name}" for kind, name in dead)
            yield Finding(
                check="rule-dead-index-key",
                severity=Severity.ERROR,
                subject=rule.name,
                message=f"rule {rule.name!r} waits for {rendered}, which the solution "
                "never contains and no rule or injection can create",
                fix_hint="fix the pattern's head symbol, or add the atom (or a rule "
                "producing it) to the solution",
                location=scope.label,
            )


@register_check(
    "rule-duplicate-name",
    kind="rule",
    severity=Severity.ERROR,
    description="rule names must be unique within a solution",
)
def check_duplicate_name(scope: RuleScope) -> Iterator[Finding]:
    """Rules compare and hash by name, so same-name rules are indistinguishable.

    A higher-order pattern (or an adaptation removing a rule by name) would
    treat two same-name rules as interchangeable even when their definitions
    differ — almost certainly a copy-paste error.
    """
    by_name: dict[str, list[Rule]] = {}
    for rule in scope.rules:
        by_name.setdefault(rule.name, []).append(rule)
    for name, rules in by_name.items():
        distinct = {id(rule) for rule in rules}
        if len(rules) > 1 and len(distinct) > 1:
            yield Finding(
                check="rule-duplicate-name",
                severity=Severity.ERROR,
                subject=name,
                message=f"{len(rules)} distinct rules named {name!r} live in the same "
                "solution; they compare equal and hash equal",
                fix_hint="rename one of the rules (names are identity for rules)",
                location=scope.label,
            )


@register_check(
    "rule-shadowed",
    kind="rule",
    severity=Severity.WARNING,
    description="an earlier unconditional n-shot rule can starve a later rule at the same priority",
)
def check_shadowed(scope: RuleScope) -> Iterator[Finding]:
    """The engine tries rules in priority-then-insertion order, first match wins.

    An earlier ``replace`` rule with no condition whose pattern requirements
    are a subset of a later rule's (same priority) wins every time both are
    applicable — and, being n-shot, it never goes away, so the later rule
    may never fire.
    """
    for index, later in enumerate(scope.rules):
        later_keys = Counter(later.pattern_index_keys)  # a multiset: None is any bucket
        for earlier in scope.rules[:index]:
            if earlier.priority != later.priority:
                continue
            if earlier.one_shot or earlier.condition is not None:
                continue
            if earlier.name == later.name:
                continue  # rule-duplicate-name covers identical names
            if Counter(earlier.pattern_index_keys) <= later_keys:
                yield Finding(
                    check="rule-shadowed",
                    severity=Severity.WARNING,
                    subject=later.name,
                    message=f"rule {later.name!r} may never fire: earlier rule "
                    f"{earlier.name!r} (same priority {earlier.priority}, n-shot, "
                    "no condition) matches a subset of its index keys first",
                    fix_hint=f"give {later.name!r} a higher priority, or add a condition "
                    f"to {earlier.name!r}",
                    location=scope.label,
                )
                break


@register_check(
    "rule-template-arity",
    kind="rule",
    severity=Severity.ERROR,
    description="Ref is for scalar bindings, Splice for omega bindings",
)
def check_template_arity(scope: RuleScope) -> Iterator[Finding]:
    """Template arity must agree with the patterns' binding arity.

    ``Ref`` of an omega-bound variable raises ``PatternError`` at fire time
    ("use Splice"); ``Splice`` of a scalar-bound variable silently coerces a
    single atom, which usually hides a wrong pattern.
    """
    for rule in scope.rules:
        summary = rule.summary
        omegas = summary.omega(rule.given)
        scalars = summary.bound(rule.given) - omegas
        for name in sorted(summary.reads["ref"] & omegas):
            yield Finding(
                check="rule-template-arity",
                severity=Severity.ERROR,
                subject=rule.name,
                message=f"rule {rule.name!r} uses Ref({name!r}) but {name!r} is omega-bound (a list of atoms)",
                fix_hint=f"use Splice({name!r}) to splice the captured atoms",
                location=scope.label,
            )
        for name in sorted(summary.reads["splice"] & scalars):
            yield Finding(
                check="rule-template-arity",
                severity=Severity.WARNING,
                subject=rule.name,
                message=f"rule {rule.name!r} uses Splice({name!r}) but {name!r} is bound to a single atom",
                fix_hint=f"use Ref({name!r}) for scalar bindings",
                location=scope.label,
            )
