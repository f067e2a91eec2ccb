"""HOCL's one-step relation, stated apart from the engine (a helper module, not a test file).

The chemistry of the paper's Section II, transcribed as directly as Python
allows: a solution takes one step by firing one rule on one admissible match,
and ends when inert.  It reads patterns, templates and rules as data and
shares no code with ``repro.hocl.engine``, ``deltas`` or the generated search:
it matches by walking the pattern tree and fires by removing every matched
atom and adding the expanded products.

* A **solution** is a canonical, hashable value: ``("sol", atoms)`` with the
  atoms sorted, a nested solution in the same form, a tuple
  ``("tuple", fields)`` in order, a list ``("list", items)`` sorted (nothing
  matches into a list, and ``params`` builds one from a solution), a scalar or
  symbol atom as itself and a rule as a :class:`Molecule`, the rule object:
  rules are shared, never copied, and the centralised ``gw_call`` of each
  task is one body given its task.  :func:`canon` reads one off a
  :class:`~repro.hocl.Multiset`, :func:`ordered` the same with every solution
  left in entry order, :func:`build` makes atoms of one again.
* :meth:`Chemistry.steps` is every successor one rule on one admissible match
  reaches, at every depth.  A match is admissible when its atoms are distinct
  occurrences, none of them the rule itself, the condition holds, and every
  solution that reacts in a matched atom is inert: an inner solution reacts
  with its enclosing level only once it is inert.  A solution reacts as an
  atom of its level or as a field of a tuple atom (how a task's fields are
  encoded); one held deeper, in a list or a tuple inside a tuple, is data.
  At one level only the rules of the highest priority that can fire do.
  Atoms compare as the engine's do (:func:`same`): structurally, rules by
  name; a solution's ω, a :class:`Bag`, in no order: spliced into a tuple it
  takes every order (an external is handed it in the relation's).
* :meth:`Chemistry.normal_forms` is every inert solution exhaustive search reaches.
* :meth:`Chemistry.first_step` is the promise the engine adds: at a level
  whose nested solutions are inert, the first rule in priority order (then
  entry order) fires at its first match in enumeration order — patterns in
  declaration order, candidates in entry order, a solution pattern's elements
  within the atom its pattern took.
"""

import operator
from itertools import permutations

from repro.hocl import ExternalFunctionError, ListAtom, Literal, Multiset, PatternError, Ref, Rule, RulePattern
from repro.hocl import SolutionPattern, Splice, Subsolution, Symbol, TupleAtom, TuplePattern, Var, from_atom, to_atom
from repro.hocl.patterns import BindingView
from repro.hocl.templates import Call, ListTemplate, SolutionTemplate, TupleTemplate, coerce

_ORDERS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_KINDS = {"sol": "solution", "tuple": "tuple", "list": "list"}
_BUILT = {"sol": Subsolution, "tuple": TupleAtom, "list": ListAtom}


class Molecule:
    """A rule as a value: the rule object itself (a rule never consumes itself, only its twins)."""

    __slots__ = ("rule",)
    kind = "rule"

    def __init__(self, rule):
        self.rule = rule

    def __eq__(self, other):
        return isinstance(other, Molecule) and self.rule is other.rule

    def __hash__(self):
        return id(self.rule)

    def __repr__(self):
        return f"Molecule({self.rule.name!r}, {id(self.rule):#x})"


class Bag(list):
    """A solution's ω: its atoms, in no order."""


def _key(value):
    """A total order over canonical values (any order would do: one fixed one)."""
    if isinstance(value, tuple):
        return f"{value[0]}({','.join(map(_key, value[1]))})"
    return f"{value.kind}:{value!r}"


def _bag(items):
    return tuple(sorted(items, key=_key))


def canon(thing, order=_bag):
    """The canonical value of a multiset or an atom (``order`` arranges the atoms of a solution)."""
    if isinstance(thing, Multiset):
        return "sol", order([canon(atom, order) for atom in thing])
    if isinstance(thing, Subsolution):
        return canon(thing.solution, order)
    if isinstance(thing, TupleAtom):
        return "tuple", tuple(canon(item, order) for item in thing.elements)
    if isinstance(thing, ListAtom):
        return "list", _bag(canon(item, order) for item in thing.items)
    return Molecule(thing) if isinstance(thing, Rule) else thing


def ordered(thing):
    """:func:`canon` with every solution in entry order: what the engine enumerates over."""
    return canon(thing, tuple)


def norm(value, named=False):
    """The canonical value of an :func:`ordered` one (of a list, an ω: of each item); ``named``: rules by name."""
    if isinstance(value, list):
        return [norm(item, named) for item in value]
    if not isinstance(value, tuple):
        return ("rule", (Symbol(value.rule.name),)) if named and isinstance(value, Molecule) else value
    items = [norm(item, named) for item in value[1]]
    return value[0], tuple(items) if value[0] == "tuple" else _bag(items)


def same(left, right):
    """Whether two values (or ω lists) are equal as the engine's atoms are; a :class:`Bag` in any order."""
    if isinstance(left, Bag) or isinstance(right, Bag):
        return isinstance(left, list) and isinstance(right, list) and _bag(norm(left, True)) == _bag(norm(right, True))
    return norm(left, True) == norm(right, True)


def build(value):
    """Fresh atoms of a canonical value (a solution as a :class:`Subsolution`)."""
    if not isinstance(value, tuple):
        return value.rule if isinstance(value, Molecule) else value
    return _BUILT[value[0]]([build(item) for item in value[1]])


def _bound(env, name, value):
    """``env`` with ``name`` bound to ``value`` — none where it is bound to something else."""
    if name not in env:
        yield {**env, name: value}
    elif same(env[name], value):
        yield env


class Chemistry:
    """The one-step relation of solutions whose products call ``externals``."""

    def __init__(self, externals=None):
        self.externals = externals
        self._steps = {}

    # ------------------------------------------------------------ the relation
    def steps(self, solution):
        """Every successor of ``solution`` by one rule on one admissible match, at any depth."""
        found = self._steps.get(solution)
        if found is None:
            atoms, found = solution[1], set()
            for at, atom in enumerate(atoms):  # a step inside one atom
                found |= {("sol", _bag(atoms[:at] + (changed,) + atoms[at + 1 :])) for changed in self._inner(atom)}
            fired = [(a.rule, at, match) for at, a in enumerate(atoms) if isinstance(a, Molecule) for match in self.matches(a.rule, atoms)]
            top = max((rule.priority for rule, _at, _match in fired), default=None)
            found = found.union(*(self._fire(rule, at, match, atoms) for rule, at, match in fired if rule.priority == top))
            self._steps[solution] = found = frozenset(found)
        return found

    def inert(self, value):
        """Whether no step is possible in ``value`` (a solution, or an atom holding some)."""
        return not any(True for _ in self._inner(value))

    def normal_forms(self, solution, bound=10_000):
        """Every inert solution reachable from ``solution``, by exhaustive search of at most ``bound`` states."""
        seen, frontier, inert = {solution}, [solution], set()
        while frontier:
            successors = self.steps(current := frontier.pop())
            if not successors:
                inert.add(current)
            for successor in successors - seen:
                if len(seen) >= bound:
                    raise RuntimeError(f"more than {bound} solutions reachable")
                seen.add(successor)
                frontier.append(successor)
        return inert

    def first_step(self, level):
        """What the engine's promise names for ``level`` (:func:`ordered`, all below inert); ``None``: inert."""
        atoms = level[1]
        rules = sorted((at for at, atom in enumerate(atoms) if isinstance(atom, Molecule)), key=lambda at: -atoms[at].rule.priority)
        for at in rules:
            for match in self.matches(atoms[at].rule, atoms):
                return self._fire(atoms[at].rule, at, match, atoms)
        return None

    def _inner(self, atom):
        """Every value ``atom`` becomes by one step in a solution reacting in it: it, or a field of it."""
        if isinstance(atom, tuple) and atom[0] == "sol":
            yield from self.steps(atom)
        elif isinstance(atom, tuple) and atom[0] == "tuple":
            fields = atom[1]
            for at, field in enumerate(fields):
                if isinstance(field, tuple) and field[0] == "sol":
                    yield from (("tuple", fields[:at] + (changed,) + fields[at + 1 :]) for changed in self.steps(field))

    # ---------------------------------------------------------------- matching
    def matches(self, rule, atoms):
        """Every admissible match ``(bindings, places taken)`` of ``rule`` among ``atoms``, in enumeration order."""
        patterns, itself = rule.patterns, Molecule(rule)
        admissible = [atom != itself and self.inert(atom) for atom in atoms]

        def walk(index, taken, env):
            if index == len(patterns):
                if self.holds(rule.condition, env):
                    yield env, taken
                return
            for at, atom in enumerate(atoms):
                if admissible[at] and at not in taken:
                    for extended in self.match(patterns[index], atom, env):
                        yield from walk(index + 1, taken + (at,), extended)

        given = {name: [canon(to_atom(item)) for item in value] if isinstance(value, list) else canon(to_atom(value)) for name, value in rule.given.items()}
        yield from walk(0, (), given)

    def match(self, pattern, value, env):
        """Every extension of ``env`` under which ``pattern`` matches ``value``."""
        shape = value[0] if isinstance(value, tuple) else None
        if isinstance(pattern, Var):
            kinds = ("int", "float") if pattern.kind == "number" else (pattern.kind,)
            if pattern.kind is None or (_KINDS[shape] if shape else value.kind) in kinds:
                yield from _bound(env, pattern.name, value)
        elif isinstance(pattern, Literal):
            if same(value, canon(pattern.atom)):
                yield env
        elif isinstance(pattern, RulePattern):
            if isinstance(value, Molecule) and pattern.name in (None, value.rule.name):
                yield from (env,) if pattern.bind_as is None else _bound(env, pattern.bind_as, value)
        elif isinstance(pattern, (TuplePattern, SolutionPattern)):
            count, items = len(pattern.elements), value[1] if shape else ()
            sized = len(items) == count if pattern.rest is None else len(items) >= count
            if sized and shape == ("tuple" if isinstance(pattern, TuplePattern) else "sol"):
                yield from self._elements(pattern, items, 0, (), env)
        else:
            raise TypeError(f"no meaning for {pattern!r}")

    def _elements(self, pattern, items, index, taken, env):
        """The element patterns from ``index`` on (a tuple's on its fields, a solution's on untaken atoms), then the ω."""
        if index == len(pattern.elements):
            if pattern.rest is None:
                yield env
            else:
                rest = list(items[index:]) if isinstance(pattern, TuplePattern) else Bag(item for at, item in enumerate(items) if at not in taken)
                yield from _bound(env, pattern.rest.name, rest)
            return
        places = [index] if isinstance(pattern, TuplePattern) else [at for at in range(len(items)) if at not in taken]
        for at in places:
            for extended in self.match(pattern.elements[index], items[at], env):
                yield from self._elements(pattern, items, index + 1, taken + (at,), extended)

    @staticmethod
    def holds(condition, env):
        """Whether ``condition`` holds under ``env`` (a side naming nothing bound is no match)."""
        if condition is None:
            return True
        sides = []
        for side in (condition.left, condition.right):
            if isinstance(side, Ref) and side.name not in env:
                return False
            sides.append(env[side.name] if isinstance(side, Ref) else canon(side))
        left, right = sides
        if condition.op in ("==", "!="):
            return same(left, right) == (condition.op == "==")
        try:
            return bool(_ORDERS[condition.op](from_atom(build(left)), from_atom(build(right))))
        except TypeError:
            return False

    # ------------------------------------------------------------------ firing
    def _fire(self, rule, own, match, atoms):
        """Every level ``rule`` (at ``own``) makes firing on ``match``: the matched leave unless kept, products join, a one-shot rule goes."""
        env, taken = match
        left = [atom for at, atom in enumerate(atoms) if (rule.keep_matched or at not in taken) and not (rule.one_shot and at == own)]
        return frozenset(norm(("sol", tuple(left + products))) for products in self._expand_all(rule.products, env))

    def _expand_all(self, templates, env, in_tuple=False):
        """Every expansion of ``templates`` (the fields of a tuple, ``in_tuple``), as lists of values."""
        options = [[]]
        for template in templates:
            options = [done + more for done in options for more in self._expand(template, env, in_tuple)]
        return options

    def _expand(self, template, env, in_tuple):
        if isinstance(template, (Ref, Splice)):
            if template.name not in env:
                raise PatternError(f"product references unbound {template.name!r}")
            bound = env[template.name]
            if isinstance(bound, list) and isinstance(template, Ref):
                raise PatternError(f"variable {template.name!r} is an omega binding")
            if isinstance(bound, Bag) and in_tuple:  # a solution's ω spliced into a tuple: in every order
                return [list(order) for order in set(permutations(bound))]
            return [list(bound) if isinstance(bound, list) else [bound]]
        if isinstance(template, (TupleTemplate, SolutionTemplate, ListTemplate)):
            if isinstance(template, TupleTemplate):
                return [[("tuple", tuple(items))] for items in self._expand_all(template.elements, env, True)]
            shape = "sol" if isinstance(template, SolutionTemplate) else "list"
            return [[(shape, _bag(items))] for items in self._expand_all(template.elements, env)]
        if isinstance(template, Call):  # an external is handed a solution's ω in the relation's order
            if self.externals is None:
                raise ExternalFunctionError(f"rule product calls {template.function!r} but no external registry is available")
            view = BindingView({name: [build(item) for item in bound] if isinstance(bound, list) else build(bound) for name, bound in env.items()})
            calls = (self.externals.invoke(template.function, list(map(build, arguments)), view) for arguments in self._expand_all(template.arguments, env))
            return [[canon(atom) for atom in coerce(result)] for result in calls]
        return [[canon(to_atom(template))]]
