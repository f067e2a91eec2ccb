"""In-place rewrite deltas — how the engine fires every rule.

A rule is written once, as HOCL writes it: patterns and products.  Fired to
the letter it would remove every matched atom and expand fresh products,
even where a product restates most of what was matched —
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

Copy-on-write: atoms added by a patch are shared by reference — only one
holding a solution is expanded as a copy, for a solution has one holder — and
the atoms around the patch — the tuple spine, the other fields, the untouched
inputs — keep their cached hashes.  Mutating a nested
:class:`~repro.hocl.multiset.Multiset` bumps its version through the one
chain of enclosing solutions (``Multiset._touch``): exactly the caches the
patch can have made stale.  A kept matched atom keeps its occurrence entry, its place in
the level and in every index bucket, and its holder wiring.

Addressing
----------
A delta edits by the sites the search bound: the entry each top-level pattern
took, then, per solution pattern in the walk of
:func:`~repro.hocl.patterns.solution_patterns`, the solution it matched and
the entry each of its elements took (the locals :attr:`Source.sites
<repro.hocl.patterns.Source.sites>` names).  :func:`derive_delta` numbers the
same slots by the same walk.  A :class:`PatchRemove` unlinks the entries its
dropped sub-patterns took from the solution in its slot — the matched
occurrences, not equal ones — a :class:`PatchAdd` adds to that solution, and
a consumed atom leaves through its top-level entry.  ``gw_pass`` (local:
``RES : <res, ωres>, DST : <tj, ωdst>``, sites ``e_RES, e_DST, <RES>, e_res,
<DST>, e_tj``) derives ``PatchRemove(4, (5,))``.

Firing
------
Nothing interprets a rule when it fires: it is written into its rule's
:class:`Reaction`, one generated function per rule body — the loops of the
search of its left-hand side (:func:`_loops`: the patterns'
:meth:`~repro.hocl.patterns.Pattern.emit`, the condition's
:meth:`~repro.hocl.rules.Compare.emit`) with, at the first admissible match,
the straight-line lines :class:`Fire` collects (the ops, the templates'
:meth:`~repro.hocl.templates.Template.emit` and the ``consume`` / ``produce``
tables), run on the search's own locals.  This module is the one writer:
:func:`_load` compiles each distinct text once, at the first reaction, and the
text is readable as ``rule.reaction.__source__``.  The local ``gw_pass``
fires as one ``_remove_entry`` of the entry ``tj`` took, from the ``DST`` body
it was in.
"""

from __future__ import annotations

import linecache
from itertools import count
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .atoms import Atom, ListAtom, Subsolution, Symbol, TupleAtom, from_atom, to_atom
from .errors import AtomError, ExternalFunctionError, PatternError, ReductionError
from .multiset import _EMPTY, atom_index_keys
from .patterns import UNBOUND, BindingView, Literal, Pattern, SolutionPattern, Source, TuplePattern, Var, _Rest, same_atoms
from .patterns import solution_patterns, value_of
from .templates import Call, ListTemplate, Ref, SolutionTemplate, Splice, Template, TupleTemplate, coerce, display, emit_template

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rules import Compare

__all__ = ["Reaction", "RuleSummary", "derive_delta"]


#: what every generated text may name without being handed it
_NAMES = {
    "U": UNBOUND, "NOTHING": {}, "EMPTY": _EMPTY, "Symbol": Symbol, "TupleAtom": TupleAtom,
    "Subsolution": Subsolution, "ListAtom": ListAtom, "Rest": _Rest, "View": BindingView,
    "coerce": coerce, "PatternError": PatternError, "ExternalFunctionError": ExternalFunctionError,
    "ReductionError": ReductionError, "value_of": value_of, "from_atom": from_atom, "same_atoms": same_atoms,
}  # fmt: skip
#: source text -> the factory it defines: ``factory(c0, c1, ...)`` is the reaction of one rule body
_FACTORIES: dict[str, Callable[..., Any]] = {}
_FACTORY_LIMIT = 512  #: shape churn (random programs) cannot leak
_serial = count(1)


def _load(text: str, filename: str) -> Callable[..., Any]:
    """Compile ``text`` — the one place that does — and keep its factory; the
    lines stay readable in a traceback under ``filename``."""
    if len(_FACTORIES) >= _FACTORY_LIMIT:
        for stale in _FACTORIES.values():
            linecache.cache.pop(stale.__code__.co_filename, None)
        _FACTORIES.clear()
    scope = dict(_NAMES)
    exec(compile(text, filename, "exec"), scope)  # noqa: S102 - text a generator of this package wrote
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    factory = _FACTORIES[text] = scope["factory"]
    return factory


def _loops(
    out: Source, patterns: Sequence[Pattern], keys: Sequence[Any], broad: Sequence[int], condition: "Compare | None"
) -> tuple[list[str], list[str]]:
    """Write into ``out`` the loops of the search of ``patterns`` (their index
    ``keys``, the ``broad`` ones searched through a memory) under
    ``condition``, up to where a match holds; the locals of the entry and of
    the atom each pattern took.

    One nested ``for`` per pattern, in declaration order, over every candidate
    entry no earlier pattern took, in bucket order.  The candidates are drawn
    when the pattern is reached, so a broad key (a kind bucket, or none) can be
    narrowed by what the patterns before bound: ``gw_pass`` looks up its
    destination tuple instead of scanning every task.  A pattern left with a
    broad key draws from the level's plausible-candidate memory — the same
    entries, in the same order, minus those its pre-check refuted (for good:
    :meth:`~repro.hocl.patterns.Pattern.reject` holds under any bindings) —
    iterated in place: what this search refutes is forgotten when it ends,
    however it ends.  Any other bucket is short, and read live: nothing
    mutates the solution while a search runs.
    """
    entries: list[str] = []
    atoms: list[str] = []
    for index, (pattern, key) in enumerate(zip(patterns, keys)):
        entry, atom = out.local("e"), out.local("a")
        if index in broad:
            own = out.const(pattern)
            narrowing = pattern.narrowing_variable()
            indent = ""
            if narrowing is not None:
                held = out.held(narrowing)
                out.line(f"if isinstance({held}, Symbol): n{index} = solution._index.get(('tuple', {held}.name), EMPTY); q{index} = False")
                out.line("else:")
                indent = "    "
            out.line(f"{indent}if m{index} is None: m{index} = solution.memory_for({own}, {out.const(key)}); d{index} = m{index}.open()")
            out.line(f"{indent}n{index} = d{index}; q{index} = True")
            out.loop(f"for {entry} in n{index}:")
        else:
            out.loop(f"for {entry} in {out.bucket('solution', key)}:")
        if entries:  # `_Entry` has no `__eq__`: identity is all there is to test
            out.line(f"if {' or '.join(f'{entry} is {other}' for other in entries)}: continue")
        out.line(f"{atom} = {entry}.atom")
        if index in broad and (rejected := pattern.reject(out, atom)) != "False":
            out.line(f"if q{index} and ({rejected}): r{index}.append({entry}); continue")
        pattern.emit(out, atom)
        entries.append(entry)
        atoms.append(atom)
    if condition is not None:
        condition.emit(out)
    return entries, atoms


def _span(pattern: Pattern) -> int:
    """How many sites the solution patterns in ``pattern`` record."""
    return sum(1 + len(found.elements) for found in solution_patterns(pattern))


class Fire(Source):
    """The lines of one delta's fire, as its ops and templates write them:
    :attr:`lines` expand what it adds, :attr:`edits` then change the solution.

    It is the search's own :class:`Source`, past the last pattern of a
    :class:`Reaction`, and reads the search's locals: :attr:`sited` holds the
    local of each site.  A name is read into a local once, before the first
    expansion that reads it; a name the left-hand side binds is there, one it
    does not (a ``given`` one) is looked up and checked.
    """

    def __init__(self, patterns: Sequence[Pattern], depth: int = 2, blocks: int = 0, shared: Sequence[str] = ()):
        super().__init__(depth, blocks, shared)
        self.edits: list[str] = []
        self.names: set[str] = set()  # what every match binds
        self.omegas: set[str] = set()  # ... to a list
        for pattern in patterns:
            self.names |= pattern.bound_names()
            self.omegas |= pattern.omega_names()
        self.scalars: dict[str, str] = {}  # variable -> the local of its one atom
        self.lists: dict[str, str] = {}  # variable -> the local of its atoms, as a list
        self.sited: list[str] = []
        self.registry = False  # whether the externals were checked

    def edit(self, text: str) -> None:
        self.edits.append("    " * self.depth + text)

    def at(self, site: int) -> str:
        """An expression for the entry or solution at slot ``site`` of the sites."""
        return self.sited[site]

    def fetch(self, name: str) -> str:
        """A local holding what ``name`` is bound to (``U``: nothing): the search's own, or one read here."""
        held = self.held(name)
        if held.isidentifier():
            return held
        local = "f" + self._ident(name)
        self.line(f"{local} = {held}")
        return local

    def atom(self, name: str) -> str:
        """The local of the one atom ``name`` is bound to."""
        held = self.scalars.get(name)
        if held is None:
            omega = f"variable {name!r} is an omega binding; use Splice({name!r})"
            if name in self.omegas:
                held = "v" + self._ident(name)  # never read: the line raises
                self.line(f"raise PatternError({omega!r})")
            else:
                held = self.fetch(name)
                if name not in self.names:
                    self.line(f"if {held} is U: raise PatternError({f'product references unbound variable {name!r}'!r})")
                    self.line(f"if isinstance({held}, list): raise PatternError({omega!r})")
            self.scalars[name] = held
        return held

    def atoms(self, name: str) -> str:
        """The local of the atoms ``name`` is bound to, as a list (an omega
        copied out of its solution here)."""
        held = self.lists.get(name)
        if held is None:
            held = self.lists[name] = "l" + self._ident(name)
            if name in self.names and name not in self.omegas:
                self.line(f"{held} = [{self.atom(name)}]")
                return held
            self.line(f"{held} = {self.fetch(name)}")
            if name not in self.names:
                self.line(f"if {held} is U: raise PatternError({f'product references unbound omega {name!r}'!r})")
            if name in self.lazy:
                solution, used = self.lazy[name]
                self.line(f"if {held} is U: {held} = {solution}.remainder({used})")
            if name not in self.omegas:
                self.line(f"elif not isinstance({held}, list): {held} = [{held}]")
        return held

    def value(self, name: str) -> str:
        """An expression for the plain value of ``name`` (:meth:`BindingView.value`), an effect's argument."""
        held = self.atoms(name) if name in self.omegas else self.fetch(name)
        if name not in self.names:
            self.line(f"if {held} is U: raise KeyError({name!r})")
        return f"from_atom({held})" if name in self.names and name not in self.omegas else f"value_of({held})"

    def externals(self, function: str) -> str:
        """The registry a ``Call`` of ``function`` invokes, checked before the
        first, and ``b``, every binding it is handed: an ω a splice copied
        already as copied, any other copied only if the external reads it."""
        if not self.registry:
            self.registry = True
            refused = f"rule product calls {function!r} but no external registry is available"
            self.line(f"if externals is None: raise ExternalFunctionError({refused!r})")
            bound = [f"{name!r}: {self.lists[name] if name in self.lazy and name in self.lists else self.read(name, True)}" for name in self.bound]
            self.line(f"b = View({{**initial_bindings{''.join(f', {item}' for item in bound)}}})")
        return "externals"

    def adding(self, target: str, templates: Sequence[Any]) -> "str | list[str]":
        """Expand ``templates`` and add the atoms to the solution ``target``;
        the local of the list of them, or the local of each."""
        items = [emit_template(template, self) for template in templates]
        if any(item[0] == "*" for item in items):
            held = self.local("p")
            self.line(f"{held} = {display(items)}")
            self.edit(f"for atom in {held}: {target}.add(atom)")
            return held
        locals_ = [self.local("p") for _ in items]
        for held, item in zip(locals_, items):
            self.line(f"{held} = {item}")
        for held in locals_:
            self.edit(f"{target}.add({held})")
        return locals_


class DeltaOp:
    """One in-place edit of the solution a match recorded at ``sites[site]``."""

    __slots__ = ("site",)

    def __init__(self, site: int):
        self.site = int(site)

    def emit(self, out: Fire) -> None:  # pragma: no cover - abstract
        """Write what the edit expands and the edit itself."""
        raise NotImplementedError


class PatchAdd(DeltaOp):
    """Add the expansion of ``templates`` to the solution at ``site``."""

    __slots__ = ("templates",)

    def __init__(self, site: int, templates: Sequence[Any] = ()):
        super().__init__(site)
        self.templates = tuple(templates)

    def emit(self, out: Fire) -> None:
        out.adding(out.at(self.site), self.templates)

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

    def emit(self, out: Fire) -> None:
        for entry in self.entries:
            out.edit(f"{out.at(self.site)}._remove_entry({out.at(entry)})")

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
    patterns:
        The left-hand side it fires on: a name it binds is read without a check.

    It is fired by the :class:`Reaction` of its rule, which :meth:`emit`
    writes the fire of: everything it adds is expanded first — ``produce``,
    then each patch's templates, each name read once, every ``Call`` run —
    so a raising expansion leaves the solution as it was and no expansion
    sees an edit; then the patches edit the matched solutions, the atoms
    matched by the ``consume`` patterns leave the level through their entries
    (in pattern order) and the ``produce`` expansions join it; nothing else
    moves.
    """

    __slots__ = ("ops", "consume", "produce", "patterns")

    def __init__(
        self, ops: Sequence[DeltaOp] = (), consume: Sequence[int] = (), produce: Sequence[Any] = (),
        patterns: Sequence[Pattern] = (),
    ):  # fmt: skip
        self.ops = tuple(ops)
        self.consume = tuple(consume)
        self.produce = tuple(produce)
        self.patterns = tuple(patterns)

    def emit(self, out: Fire) -> "str | list[str]":
        """Write the fire into ``out``: the expansions, then the edits; the
        local of the list of the ``produce`` expansions, or the local of each."""
        added: "str | list[str]" = []
        joining: list[str] = []
        if self.produce:  # expanded first, joins the level last
            added = out.adding("solution", self.produce)
            joining, out.edits = out.edits, []
        for op in self.ops:
            op.emit(out)
        for index in self.consume:
            out.edit(f"solution._remove_entry({out.at(index)})")
        out.lines += [*out.edits, *joining]
        out.edits = []
        return added

    def __repr__(self) -> str:
        return f"RewriteDelta(ops={self.ops!r}, consume={self.consume!r}, produce={self.produce!r})"


def derive_delta(patterns: Sequence[Pattern], products: Sequence[Any], keep_matched: bool = False) -> RewriteDelta:
    """The in-place form of the rule ``patterns -> products`` (see the module docstring).

    Each product, in order, keeps the first matched atom not kept yet that it
    restates; the patches that restatement needs join ``ops``.
    """
    if keep_matched:
        return RewriteDelta(produce=products, patterns=patterns)
    firsts: list[int] = []  # the site of each pattern's first solution pattern
    site = len(patterns)
    for pattern in patterns:
        firsts.append(site)
        site += _span(pattern)
    kept: set[int] = set()
    ops: list[DeltaOp] = []
    produce = []
    for product in products:
        for at, pattern in enumerate(patterns):
            patches = None if at in kept else _restated(pattern, product, firsts[at])
            if patches is not None:
                kept.add(at)
                ops += patches
                break
        else:
            produce.append(product)
    consume = [at for at in range(len(patterns)) if at not in kept]
    return RewriteDelta(ops, consume, produce, patterns)


def _restated(pattern: Pattern, template: Any, first: int) -> list[DeltaOp] | None:
    """The patches turning the atom ``pattern`` matched into ``template``'s
    expansion; ``None`` when ``template`` does not restate it.

    ``first`` is the site of the first solution pattern in ``pattern``.
    """
    if isinstance(pattern, Var):
        return [] if isinstance(template, Ref) and template.name == pattern.name else None
    if isinstance(pattern, Literal):  # a symbol is interned: identity first
        return [] if template is pattern.atom or isinstance(template, Atom) and template == pattern.atom else None
    if isinstance(pattern, SolutionPattern):
        return _patched_body(pattern, template, first) if isinstance(template, SolutionTemplate) else None
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
        patches = _restated(element, field, first)
        if patches is None:
            return None
        ops += patches
        first += _span(element)
    return ops


def _patched_body(pattern: SolutionPattern, template: SolutionTemplate, site: int) -> list[DeltaOp] | None:
    """The patches turning the body ``pattern`` matched (at ``site``) into
    ``template``'s; ``None`` when the body does not survive: its ω is not
    spliced back."""
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
            patches = _restated(sub, element, below)
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
    return ops


class Reaction:
    """A rule as the engine tries it: one generated function, shared by
    :meth:`~repro.hocl.rules.Rule.bind` siblings, whose body is the search's
    loops and, at the first admissible match, the fire its delta writes, on
    the search's own locals.  ``run(solution, owner, externals, effects,
    clock)`` returns ``None`` when nothing matches, else ``(produced,
    searched)``: the atoms the firing left and made, and the instant the
    search ended (read only if ``clock``).  At the match the candidate
    memories close first (an edit may give back an entry the search refuted),
    then the effect is called, the fire runs (a raise there a
    ``ReductionError`` naming the rule) and what the effect returned joins
    ``effects``.  Written at the first reaction and compiled once per distinct
    text; ``__source__`` is its text.
    """

    __slots__ = ("run", "__source__")

    def __getattr__(self, name: str) -> Any:
        # only an unset slot gets here: nothing reacted yet
        if name == "run":
            return self._first
        raise AttributeError(name)

    def _first(self, solution: Any, owner: Any, *rest: Any) -> Any:
        text, constants = self._write(owner)
        factory = _FACTORIES.get(text) or _load(text, f"<hocl-reaction {owner.name} #{next(_serial)}>")
        self.__source__, run = text, factory(*constants)
        self.run = run
        return run(solution, owner, *rest)

    @staticmethod
    def _write(rule: Any) -> tuple[str, list[Any]]:
        """The text of the reaction of ``rule`` and the constants it names."""
        patterns, delta = rule.patterns, rule.delta
        keys = [pattern.index_key() for pattern in patterns]
        broad = [index for index, key in enumerate(keys) if key is None or key[0] == "kind"]  # a kind bucket, or none
        opened = [f"{stem}{index}" for index in broad for stem in "md"]  # memory and its entries, once a pattern got that far
        out = Fire(patterns, 3 if broad else 2, 1 if broad else 0, opened)
        entries, atoms = _loops(out, patterns, keys, broad, rule.condition)
        if atoms:  # by identity: rules are equal by name
            out.line(f"if {' or '.join(f'{atom} is owner' for atom in atoms)}: continue")
        out.sited = [*entries, *out.sites]
        for index in broad:
            out.line(f"if m{index} is not None: m{index}.close(r{index}); m{index} = None")
        out.line("searched = clock and clock()")
        if rule.effect is not None:
            values = ", ".join(out.value(name) for name in rule.effect_names)
            out.line(f"emitted = list({out.const(rule.effect)}({values}) or ())")
        out.line("try:")
        out.depth += 1
        fired = len(out.lines)
        added = delta.emit(out)
        out.depth -= 1
        if len(out.lines) == fired:  # nothing to expand or edit
            out.lines.pop()
        else:
            out.line("except Exception as exc:")
            out.line('    raise ReductionError(f"rule {owner.name!r} failed to apply its rewrite delta: {exc}") from exc')
        if rule.effect is not None:
            out.line("effects.extend(emitted)")
        kept = len(patterns) - len(delta.consume)
        out.line(f"return {f'{kept} + len({added})' if isinstance(added, str) else kept + len(added)}, searched")
        out.close()
        # the frame: the given bindings read, the memories closed however the search ends
        head = [f"def factory({', '.join(f'c{index}' for index in range(len(out.constants)))}):"]
        head += ["    def react(solution, owner, externals, effects, clock):", "        initial_bindings = owner.given"]
        if out.initial:
            head.append("        if initial_bindings:")
            head.append("            get = initial_bindings.get")
            head.extend(f"            {held} = get({name!r}, U)" for name, held in out.initial.items())
            head.append("        else:")
            head.append(f"            initial_bindings = NOTHING; {' = '.join(out.initial.values())} = U")
        else:
            head.append("        if not initial_bindings: initial_bindings = NOTHING")
        tail = []
        if broad:
            head.append(f"        {' = '.join(opened)} = None")
            head.extend(f"        r{index} = []" for index in broad)
            head.append("        try:")
            tail.append("        finally:")
            tail.extend(f"            if m{index} is not None: m{index}.close(r{index})" for index in broad)
        return "\n".join([*head, *out.lines, *tail, "    return react", ""]), out.constants


class RuleSummary:
    """What a rule binds, reads, matches and can add, read once off its two
    sides, its condition, its effect and its :class:`RewriteDelta`: the one
    model of a rule :mod:`repro.analysis` reads.  It depends on the rule's
    body alone, so :meth:`~repro.hocl.rules.Rule.bind` siblings share it, and
    resolve their ``given`` names through :meth:`bound`, :meth:`omega` and
    :meth:`added`.  A depth counts solutions from the one the rule lives in
    (0) to the one an atom is a member of.

    Attributes
    ----------
    binds, omegas:
        The names the patterns bind, and those of them bound to a list.
    reads:
        Role -> the names the rule reads in it: ``"ref"`` and ``"splice"``
        (the products' ``Ref`` and ``Splice``), ``"condition"`` and
        ``"effect"`` (the effect's parameters).
    matches:
        Depth -> the index keys the patterns match there.
    adds:
        Depth -> the index keys the atoms a firing makes can have there,
        given atoms aside: read off the delta's ``produce`` and each
        :class:`PatchAdd`'s templates.  What a firing restates is not made,
        and a matched atom a product moves elsewhere is not made either.
    """

    __slots__ = ("binds", "omegas", "reads", "matches", "adds", "givens", "anywhere", "below")

    def __init__(
        self, patterns: Sequence[Pattern], products: Sequence[Any], condition: Any, effect_names: Sequence[str],
        delta: RewriteDelta,
    ):  # fmt: skip
        self.binds: set[str] = set()
        self.omegas: set[str] = set()
        for pattern in patterns:
            self.binds |= pattern.bound_names()
            self.omegas |= pattern.omega_names()
        conditional = () if condition is None else condition.names
        self.reads = {"ref": set(), "splice": set(), "condition": set(conditional), "effect": set(effect_names)}
        self.matches: dict[int, set[Any]] = {}
        self.adds: dict[int, set[Any]] = {}
        self.givens: list[tuple[str, int, bool]] = []  # a name no pattern binds, the depth its atoms join, as members
        self.anywhere: set[int] = set()  # the depths a firing can add any atom at
        self.below = inf  # ... and every depth from this one on
        bodies: list[tuple[int, int]] = []  # (depth, elements) of each solution pattern's body, in site order
        for pattern in patterns:
            self._match(pattern, 0, True, bodies)
        depths, site = {}, len(patterns)
        for depth, size in bodies:
            depths[site] = depth
            site += 1 + size
        for product in products:
            self._read(product)
        for template in delta.produce:
            self._add(template, 0, True)
        for op in delta.ops:
            for template in op.templates if isinstance(op, PatchAdd) else ():
                self._add(template, depths[op.site], True)

    def bound(self, given: Mapping[str, Any]) -> set[str]:
        """The names a match of the rule given ``given`` binds."""
        return self.binds | given.keys()

    def omega(self, given: Mapping[str, Any]) -> set[str]:
        """Those of :meth:`bound` bound to a list."""
        return self.omegas | {name for name, value in given.items() if isinstance(value, list)}

    def matched(self) -> set[Any]:
        """The index keys the patterns match, at any depth."""
        return set().union(*self.matches.values())

    def added(self, depth: int, given: Mapping[str, Any]) -> tuple[set[Any], bool]:
        """The index keys a firing of the rule given ``given`` can add at
        ``depth``, and whether it can add any atom there."""
        keys = {depth: set(self.adds.get(depth, ()))}
        for name, at, member in self.givens:
            value = given.get(name)
            for atom in value if isinstance(value, list) else () if value is None else (value,):
                _atom_adds(atom, at, member, keys)
        return keys[depth], depth in self.anywhere or depth >= self.below

    def _match(self, pattern: Pattern, depth: int, member: bool, bodies: list[tuple[int, int]]) -> None:
        if member and (key := pattern.index_key()) is not None:
            self.matches.setdefault(depth, set()).add(key)
        if isinstance(pattern, SolutionPattern):
            bodies.append((depth + 1, len(pattern.elements)))
        if isinstance(pattern, (TuplePattern, SolutionPattern)):
            inner = isinstance(pattern, SolutionPattern)
            for element in pattern.elements:
                self._match(element, depth + inner, inner, bodies)

    def _read(self, template: Any) -> None:
        if isinstance(template, (Ref, Splice)):
            self.reads["ref" if isinstance(template, Ref) else "splice"].add(template.name)
        elif isinstance(template, Template):
            for inner in template.arguments if isinstance(template, Call) else template.elements:  # type: ignore[attr-defined]
                self._read(inner)

    def _anything(self, depth: int, member: bool) -> None:
        """Any atom can join at ``depth`` (as a member), holding any atom below it."""
        if member:
            self.anywhere.add(depth)
        self.below = min(self.below, depth + 1)

    def _add(self, template: Any, depth: int, member: bool) -> None:
        """Note what expanding ``template`` adds at ``depth``, as a member of
        that level or a field of an atom of it."""
        if isinstance(template, (Ref, Splice)):
            if template.name not in self.binds:  # a matched atom only moves
                self.givens.append((template.name, depth, member))
        elif isinstance(template, Call):
            self._anything(depth, member)
        elif isinstance(template, Template):
            inner = isinstance(template, SolutionTemplate)
            for element in template.elements:  # type: ignore[attr-defined]
                self._add(element, depth + inner, inner)
            if not member:
                return
            kind = "solution" if inner else "list" if isinstance(template, ListTemplate) else "tuple"
            head = template.elements[0] if template.elements else None  # type: ignore[attr-defined]
            if kind == "tuple" and (head is None or isinstance(head, Template)):
                self.anywhere.add(depth)  # a tuple of a head unknown here
            else:
                named = [("tuple", head.name)] if kind == "tuple" and isinstance(head, Symbol) else []
                self.adds.setdefault(depth, set()).update([*named, ("kind", kind)])
        else:
            try:
                _atom_adds(to_atom(template), depth, member, self.adds)
            except AtomError:  # no atom: nothing is known of what a firing makes of it
                self._anything(depth, member)


def _atom_adds(atom: Atom, depth: int, member: bool, keys: dict[int, set[Any]]) -> None:
    """Note in ``keys`` the index keys ``atom``, joining at ``depth``, adds there and below."""
    if member:
        keys.setdefault(depth, set()).update(atom_index_keys(atom))
    if isinstance(atom, Subsolution):
        for inner in atom.solution:
            _atom_adds(inner, depth + 1, True, keys)
    elif isinstance(atom, (TupleAtom, ListAtom)):
        for inner in atom.elements if isinstance(atom, TupleAtom) else atom.items:
            _atom_adds(inner, depth, False, keys)
