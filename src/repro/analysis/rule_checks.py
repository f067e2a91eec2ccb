"""Static checks over HOCL rules in the context of a target solution.

Each check inspects :class:`~repro.hocl.rules.Rule` objects *without running
a reduction*, through the introspection hooks the rule layer exposes —
:meth:`Pattern.bound_names`, :meth:`Template.referenced_names`,
:meth:`Rule.referenced_variables` — plus a conservative bytecode scan of
condition/effect closures.  The failure class they target is the silent one:
a rule whose product references an unbound variable raises only when it
finally fires, a rule whose index key can never appear simply never fires,
and both look exactly like a hang at enactment time.

Checks receive a :class:`RuleScope`: the rules of one solution (a task
sub-solution or the global solution) together with that solution's initial
contents and the index keys the outside world may inject into it.
"""

from __future__ import annotations

import dis
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.hocl.atoms import Atom, Symbol, to_atom
from repro.hocl.errors import AtomError
from repro.hocl.multiset import Multiset, atom_index_keys
from repro.hocl.rules import Rule
from repro.hocl.templates import (
    Call,
    ListTemplate,
    Ref,
    SolutionTemplate,
    Splice,
    Template,
    TupleTemplate,
)

from .findings import Finding, Severity
from .registry import register_check

__all__ = ["RuleScope", "condition_variables", "given_atoms", "producible_keys"]


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


# --------------------------------------------------------------- introspection
def condition_variables(closure: Callable[..., Any] | None) -> set[str]:
    """Variable names a condition/effect closure reads from its bindings.

    A conservative bytecode scan: it recognises the three idioms the
    codebase uses — ``bindings.value("x")``, ``bindings.atom("x")`` and
    ``bindings["x"]`` — and returns only names it is certain about.  A
    closure using none of these idioms yields the empty set, which callers
    must treat as "unknown", not as "reads nothing".
    """
    code = getattr(closure, "__code__", None)
    if code is None:
        return set()
    names: set[str] = set()
    previous: dis.Instruction | None = None
    for instruction in dis.get_instructions(code):
        if (
            previous is not None
            and previous.opname in ("LOAD_ATTR", "LOAD_METHOD")
            and previous.argval in ("value", "atom", "get")
            and instruction.opname == "LOAD_CONST"
            and isinstance(instruction.argval, str)
        ):
            names.add(instruction.argval)
        if (
            instruction.opname == "BINARY_SUBSCR"
            and previous is not None
            and previous.opname == "LOAD_CONST"
            and isinstance(previous.argval, str)
        ):
            names.add(previous.argval)
        previous = instruction
    return names


def given_atoms(rule: Rule, name: str) -> list[Atom]:
    """The atoms ``rule`` is given as ``name`` (none if a pattern binds it)."""
    given = rule.given.get(name)
    return [] if given is None else given if isinstance(given, list) else [given]


def _walk_templates(products: tuple[Any, ...]) -> Iterator[Any]:
    """Every template node reachable from ``products`` (containers included)."""
    stack = list(products)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (TupleTemplate, SolutionTemplate, ListTemplate)):
            stack.extend(node.elements)
        elif isinstance(node, Call):
            stack.extend(node.arguments)


def producible_keys(rules: tuple[Rule, ...]) -> tuple[set[Any], bool, bool]:
    """Index keys the rules of a scope can create in their own solution.

    Returns ``(keys, any_tuple, any_atom)``: the concrete keys producible by
    the rules' top-level products, whether some product builds a tuple with
    a statically unknown head (any ``("tuple", *)`` key becomes reachable),
    and whether some product can create arbitrary atoms (``Call`` results
    are external values — the check must then assume anything).

    ``Ref``/``Splice`` products of a pattern-bound variable re-insert atoms
    that were just consumed from the same solution, so they cannot make a
    *new* key appear and contribute nothing; of a :attr:`~Rule.given` one,
    they add the given atoms.
    """
    keys: set[Any] = set()
    any_tuple = False
    any_atom = False
    for rule in rules:
        for node in _walk_templates(rule.products):
            if isinstance(node, Call):
                any_atom = True
            elif isinstance(node, TupleTemplate):
                head = node.elements[0] if node.elements else None
                if isinstance(head, Symbol):
                    keys.add(("tuple", head.name))
                    keys.add(("kind", "tuple"))
                else:
                    any_tuple = True
            elif isinstance(node, SolutionTemplate):
                keys.add(("kind", "solution"))
            elif isinstance(node, ListTemplate):
                keys.add(("kind", "list"))
            elif isinstance(node, (Ref, Splice)):
                for atom in given_atoms(rule, node.name):
                    keys.update(atom_index_keys(atom))
            elif isinstance(node, Atom):
                keys.update(atom_index_keys(node))
            elif not isinstance(node, Template):
                try:
                    keys.update(atom_index_keys(to_atom(node)))
                except AtomError:  # an unconvertible literal: anything
                    any_atom = True
    return keys, any_tuple, any_atom


def _key_multiset(rule: Rule) -> Counter[Any]:
    """The rule's pattern index keys as a multiset (``None`` = any bucket)."""
    return Counter(rule.pattern_index_keys)


def _is_sub_multiset(smaller: Counter[Any], larger: Counter[Any]) -> bool:
    return all(larger.get(key, 0) >= count for key, count in smaller.items())


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
        unbound = sorted(rule.referenced_variables() - rule.bound_variables())
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
    description="condition/effect closures must only read variables the patterns bind",
)
def check_unbound_condition(scope: RuleScope) -> Iterator[Finding]:
    """An unbound condition variable makes the rule silently never fire.

    The engine treats a ``KeyError`` raised by a condition as a non-match,
    so the rule just never applies — the exact hang-until-timeout class.
    The bytecode scan is conservative, hence the warning severity.
    """
    for rule in scope.rules:
        bound = rule.bound_variables()
        for role, closure in (("condition", rule.condition), ("effect", rule.effect)):
            referenced = condition_variables(closure)
            unbound = sorted(referenced - bound)
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

    A key is *live* when the initial solution contains it, when another rule
    of the scope can produce it, or when the outside world can inject it
    (``scope.injected_keys``).  The engine's plausibility filter skips rules
    with no candidates in their buckets, so a dead key means the rule never
    even reaches the matcher.
    """
    if scope.solution is None or scope.injected_wildcard:
        return
    live: set[Any] = set()
    for atom in scope.solution.atoms():
        live.update(atom_index_keys(atom))
    live.update(scope.injected_keys)
    produced, any_tuple, any_atom = producible_keys(scope.rules)
    if any_atom:
        return
    live.update(produced)
    for rule in scope.rules:
        dead = []
        for key in rule.pattern_index_keys:
            if key is None or key in live:
                continue
            if key[0] == "tuple" and any_tuple:
                continue
            if key == ("kind", "tuple") and any_tuple:
                continue
            dead.append(key)
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
        later_keys = _key_multiset(later)
        for earlier in scope.rules[:index]:
            if earlier.priority != later.priority:
                continue
            if earlier.one_shot or earlier.condition is not None:
                continue
            if earlier.name == later.name:
                continue  # rule-duplicate-name covers identical names
            if _is_sub_multiset(_key_multiset(earlier), later_keys):
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
        omegas = rule.omega_variables()
        scalars = rule.bound_variables() - omegas
        for node in _walk_templates(rule.products):
            if isinstance(node, Ref) and node.name in omegas:
                yield Finding(
                    check="rule-template-arity",
                    severity=Severity.ERROR,
                    subject=rule.name,
                    message=f"rule {rule.name!r} uses Ref({node.name!r}) but "
                    f"{node.name!r} is omega-bound (a list of atoms)",
                    fix_hint=f"use Splice({node.name!r}) to splice the captured atoms",
                    location=scope.label,
                )
            elif isinstance(node, Splice) and node.name in scalars:
                yield Finding(
                    check="rule-template-arity",
                    severity=Severity.WARNING,
                    subject=rule.name,
                    message=f"rule {rule.name!r} uses Splice({node.name!r}) but "
                    f"{node.name!r} is bound to a single atom",
                    fix_hint=f"use Ref({node.name!r}) for scalar bindings",
                    location=scope.label,
                )
