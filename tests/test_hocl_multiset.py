"""Unit tests for the Multiset container."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from test_matcher_oracle import _ATOMS, _EXAMPLES

from repro.hocl import (
    AtomError,
    BoolAtom,
    FloatAtom,
    IntAtom,
    ListAtom,
    Multiset,
    Omega,
    ReductionEngine,
    Rule,
    SolutionPattern,
    StringAtom,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    Var,
)
from repro.hocl.deltas import _FACTORIES, _load
from repro.hocl.patterns import Source


def compiled_reject(pattern):
    """The pre-check a generated search runs for ``pattern`` (what its
    ``reject`` writes), as a function of one atom."""
    out = Source(2)
    test = pattern.reject(out, "atom")
    constants = ", ".join(f"c{index}" for index in range(len(out.constants)))
    text = f"def factory({constants}):\n    def reject(atom):\n        return bool({test})\n    return reject\n"
    return (_FACTORIES.get(text) or _load(text, "<reject>"))(*out.constants)


def make_rule(name="r"):
    return Rule(name, [Var("x", kind="int")], [])


def _state(solution):
    """What a refused add must leave as it was: version, entries, index,
    nested solutions, flags and memories."""
    return (
        solution.version,
        [id(entry) for entry in solution.live_entries()],
        {key: [id(entry) for entry in bucket] for key, bucket in solution._index.items()},
        {id(entry): [id(held) for held in nested] for entry, nested in (solution._nested or {}).items()},
        sorted(map(id, solution._flagged or ())),
        {id(pattern): [id(entry) for entry in memory.snapshot()] for pattern, memory in (solution._memories or {}).items()},
    )


def assert_refused(solution, atom):
    """``solution.add(atom)`` raises ``AtomError`` and changes nothing, wires no holder."""
    before, holders = _state(solution), [held._holder for held in _held_solutions(atom)]
    with pytest.raises(AtomError, match="one holder"):
        solution.add(atom)
    assert _state(solution) == before
    assert [held._holder for held in _held_solutions(atom)] == holders


class TestBasicOperations:
    def test_empty(self):
        assert len(Multiset()) == 0

    def test_init_coerces(self):
        ms = Multiset([1, "a"])
        assert IntAtom(1) in ms

    def test_add_returns_atom(self):
        ms = Multiset()
        atom = ms.add(3)
        assert atom == IntAtom(3)

    def test_duplicates_allowed(self):
        ms = Multiset([1, 1, 1])
        assert ms.count(1) == 3

    def test_remove_one_occurrence(self):
        ms = Multiset([1, 1])
        ms.remove(1)
        assert ms.count(1) == 1

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            Multiset().remove(1)

    def test_discard_missing_returns_false(self):
        assert Multiset().discard(1) is False

    def test_discard_present_returns_true(self):
        assert Multiset([1]).discard(1) is True

    def test_remove_identical_uses_identity(self):
        a1, a2 = IntAtom(1), IntAtom(1)
        ms = Multiset([a1, a2])
        ms.remove_identical(a2)
        assert len(ms) == 1
        assert ms.atoms()[0] is a1

    def test_remove_identical_missing_raises(self):
        with pytest.raises(KeyError):
            Multiset([IntAtom(1)]).remove_identical(IntAtom(1))

    def test_clear(self):
        ms = Multiset([1, 2, 3])
        ms.clear()
        assert len(ms) == 0

    def test_contains(self):
        assert 1 in Multiset([1])
        assert 2 not in Multiset([1])


class TestQueries:
    def test_find(self):
        ms = Multiset([1, 2, 3])
        assert ms.find(lambda a: isinstance(a, IntAtom) and a.value > 1) == IntAtom(2)

    def test_find_none(self):
        assert Multiset([1]).find(lambda a: False) is None

    def test_find_tuple_by_head(self):
        ms = Multiset([TupleAtom([Symbol("SRC"), Subsolution()]), TupleAtom([Symbol("DST"), Subsolution()])])
        assert ms.find_tuple("SRC").head_symbol() == "SRC"
        assert ms.find_tuple("RES") is None

    def test_replace_tuple(self):
        ms = Multiset([TupleAtom([Symbol("SRC"), Subsolution([Symbol("T1")])])])
        ms.replace_tuple("SRC", TupleAtom([Symbol("SRC"), Subsolution()]))
        assert len(ms.find_tuple("SRC")[1].solution) == 0

    def test_replace_tuple_adds_when_absent(self):
        ms = Multiset()
        ms.replace_tuple("PAR", TupleAtom([Symbol("PAR"), 1]))
        assert ms.find_tuple("PAR") is not None

    def test_has_symbol(self):
        assert Multiset([Symbol("ADAPT")]).has_symbol("ADAPT")
        assert not Multiset().has_symbol("ADAPT")

    def test_remove_symbol(self):
        ms = Multiset([Symbol("ADAPT")])
        assert ms.remove_symbol("ADAPT")
        assert not ms.remove_symbol("ADAPT")

    def test_subsolutions(self):
        ms = Multiset([Subsolution([1]), 2])
        assert len(ms.subsolutions()) == 1

    def test_rules_and_non_rules(self):
        rule = make_rule()
        ms = Multiset([rule, 1])
        assert ms.rules() == [rule]
        assert [atom for atom in ms if atom.kind != "rule"] == [IntAtom(1)]


class TestStructure:
    def test_copy_independent(self):
        ms = Multiset([Subsolution([1])])
        clone = ms.copy()
        ms.subsolutions()[0].solution.add(2)
        assert len(clone.subsolutions()[0].solution) == 1

    def test_union(self):
        combined = Multiset([1]).union(Multiset([2]))
        assert len(combined) == 2

    def test_size_recursive_counts_nested(self):
        ms = Multiset([Subsolution([1, 2]), TupleAtom([Symbol("T"), Subsolution([3])])])
        # 2 top-level + 2 nested + 1 nested-in-tuple
        assert ms.size_recursive() == 5

    def test_equality_ignores_order(self):
        assert Multiset([1, 2]) == Multiset([2, 1])

    def test_equality_respects_multiplicity(self):
        assert Multiset([1, 1]) != Multiset([1])

    def test_equality_with_other_type(self):
        assert Multiset([1]).__eq__(42) is NotImplemented

    def test_str_rendering(self):
        assert str(Multiset([1])) == "<1>"


def _slots(solution):
    """Every slot of a solution, each entry and held solution by its place:
    version, entries (join order and atom), index buckets, nested solutions,
    flags, the holders of what its atoms hold, and its own holder, memories,
    rule ordering and inertness stamp."""
    entries = solution.live_entries()
    place = {id(entry): at for at, entry in enumerate(entries)}
    held = [_held_solutions(entry.atom) for entry in entries]
    return (
        solution.version,
        [(entry.seq, entry.atom) for entry in entries],
        [(key, [place[id(entry)] for entry in bucket]) for key, bucket in solution._index.items()],
        {place[id(entry)]: [held[place[id(entry)]].index(inner) for inner in nested] for entry, nested in (solution._nested or {}).items()},
        sorted(place[id(entry)] for entry in solution._flagged or ()),
        [[inner._holder[0] is solution and place[id(inner._holder[1])] for inner in holding] for holding in held],
        solution._holder, solution._memories, solution._rules_dirty, solution._inert_version,
    )


def _added(atoms):
    """``atoms`` added to an empty solution one by one."""
    solution = Multiset()
    for atom in atoms:
        solution.add(atom)
    return solution


class TestBuiltInOnePass:
    """``Multiset(contents)`` leaves the state ``add`` per atom leaves, and
    refuses what it refuses: a solution held already, by another solution or
    by an earlier atom of the contents (nothing can enclose a solution not
    built yet)."""

    @given(atoms=st.lists(_ATOMS, max_size=6))
    @settings(max_examples=_EXAMPLES, deadline=None)
    def test_every_slot_as_add_per_atom(self, atoms):
        assert _slots(Multiset(atoms)) == _slots(_added([atom.copy() for atom in atoms]))

    @given(atoms=st.lists(_ATOMS, min_size=1, max_size=5), data=st.data())
    @settings(max_examples=_EXAMPLES, deadline=None)
    def test_a_held_solution_is_refused_alike(self, atoms, data):
        holding = [at for at, atom in enumerate(atoms) if _held_solutions(atom)]
        if not holding:
            atoms, holding = [*atoms, Subsolution([1])], [len(atoms)]
        again, at = data.draw(st.sampled_from(holding)), data.draw(st.integers(0, len(atoms)))
        elsewhere = data.draw(st.booleans())  # held by another solution, or by an earlier atom of these
        copies = [atom.copy() for atom in atoms]
        refused = []
        for contents, build in ((atoms, Multiset), (copies, _added)):
            if elsewhere:
                Multiset([contents[again]])
                contents = [*contents[:at], contents[again], *contents[at:]][:at + 1]
            else:
                contents = [*contents[:at], contents[again], *contents[at:]]
            with pytest.raises(AtomError, match="one holder") as raised:
                build(contents)
            refused.append(str(raised.value))
        assert refused[0] == refused[1]


class TestDirtyTracking:
    def test_version_bumps_on_mutation(self):
        ms = Multiset()
        v0 = ms.version
        ms.add(1)
        assert ms.version > v0
        v1 = ms.version
        ms.remove(1)
        assert ms.version > v1

    def test_nested_mutation_invalidates_ancestors(self):
        inner = Multiset([1])
        middle = Multiset([Subsolution(inner)])
        outer = Multiset([TupleAtom([Symbol("T"), Subsolution(middle)])])
        before = outer.version
        inner.add(2)
        assert outer.version > before
        assert middle.version > before

    def test_inert_marker_survives_reads_but_not_writes(self):
        ms = Multiset([1, 2])
        ms.note_inert()
        assert ms.known_inert
        ms.atoms(), list(ms), 1 in ms  # reads do not invalidate
        assert ms.known_inert
        ms.add(3)
        assert not ms.known_inert

    def test_nested_write_invalidates_parent_inert_marker(self):
        inner = Multiset()
        ms = Multiset([Subsolution(inner)])
        ms.note_inert()
        inner.add(1)
        assert not ms.known_inert


class TestCandidateIndex:
    def test_symbol_and_tuple_buckets(self):
        ms = Multiset([Symbol("ADAPT"), TupleAtom([Symbol("SRC"), 1]), 7])
        assert [str(a) for a in ms.candidates(("symbol", "ADAPT"))] == ["ADAPT"]
        assert [str(a) for a in ms.candidates(("tuple", "SRC"))] == ["SRC:1"]
        assert ms.has_all_candidates([("kind", "int")])
        assert not ms.has_all_candidates([("tuple", "DST")])

    def test_none_key_returns_all_in_insertion_order(self):
        ms = Multiset([3, Symbol("A"), 1])
        assert [str(a) for a in ms.candidates(None)] == ["3", "A", "1"]

    def test_bucket_preserves_insertion_order_with_duplicates(self):
        marker = Symbol("ADAPT")
        ms = Multiset()
        ms.add(marker)
        ms.add(Symbol("OTHER"))
        ms.add(marker)  # the same object twice: two distinct occurrences
        assert len(ms.candidate_entries(("symbol", "ADAPT"))) == 2
        ms.remove(marker)
        assert len(ms.candidate_entries(("symbol", "ADAPT"))) == 1

    def test_index_follows_removal(self):
        src = TupleAtom([Symbol("SRC"), 1])
        ms = Multiset([src, TupleAtom([Symbol("SRC"), 2])])
        ms.remove_identical(src)
        assert [str(a) for a in ms.candidates(("tuple", "SRC"))] == ["SRC:2"]
        assert ms.find_tuple("SRC") is not None

    def test_rules_by_priority_cached_ordering(self):
        low = Rule("low", [Var("x", kind="int")], [], priority=0)
        high = Rule("high", [Var("x", kind="int")], [], priority=5)
        ms = Multiset([low, high])
        assert [r.name for r in ms.rules_by_priority()] == ["high", "low"]
        ms.remove_identical(high)
        assert [r.name for r in ms.rules_by_priority()] == ["low"]

    def test_a_held_subsolution_is_refused_a_second_holder(self):
        # a solution has one holder: a second multiset, a second entry of the
        # same one, or twice in one atom is refused, and the holder still hears
        inner = Multiset([1])
        sub = Subsolution(inner)
        first, second = Multiset([sub]), Multiset([2])
        assert_refused(first, sub)
        assert_refused(second, sub)
        assert_refused(second, TupleAtom([Symbol("T"), sub]))
        twice = Subsolution()
        assert_refused(second, TupleAtom([Symbol("T"), twice, twice]))
        assert twice.solution._holder is None  # the first of the two is unwired again
        v_first, v_second = first.version, second.version
        inner.add(2)
        assert (first.version > v_first, second.version) == (True, v_second)
        first.remove_identical(sub)
        second.add(sub)  # disowned: free to join another
        v_first, v_second = first.version, second.version
        inner.add(3)
        assert (first.version, second.version > v_second) == (v_first, True)

    def test_a_solution_is_refused_below_itself(self):
        """A root added under its own child, or under itself, would be a cycle."""
        root, child = Multiset(), Multiset([1])
        root.add(TupleAtom([Symbol("C"), Subsolution(child)]))
        assert_refused(child, Subsolution(root))
        assert_refused(root, Subsolution(root))
        assert_refused(child, ListAtom([Subsolution(root)]))
        assert root._holder is None and child._holder[0] is root


def one_of_each_kind():
    """One atom per kind (and per index-key shape), freshly built each call."""
    return {
        "int": IntAtom(1),
        "float": FloatAtom(1.0),
        "bool": BoolAtom(True),
        "string": StringAtom("a"),
        "list": ListAtom([1, 2]),
        "solution": Subsolution([1]),
        "symbol": Symbol("A"),
        "tuple-symbol-head": TupleAtom([Symbol("SRC"), 1]),
        "tuple-other-head": TupleAtom([1, 2]),
        "tuple-with-solution": TupleAtom([Symbol("T"), Subsolution([1])]),
        "rule": make_rule("r1"),
    }


#: same kind — so the same kind bucket, and for symbols/tuples/rules a
#: *different* primary bucket — but not equal
LOOKALIKES = {
    "int": IntAtom(2),
    "float": FloatAtom(2.0),
    "bool": BoolAtom(False),
    "string": StringAtom("b"),
    "list": ListAtom([1]),
    "solution": Subsolution([2]),
    "symbol": Symbol("B"),
    "tuple-symbol-head": TupleAtom([Symbol("SRC"), 2]),
    "tuple-other-head": TupleAtom([1, 3]),
    "tuple-with-solution": TupleAtom([Symbol("T"), Subsolution([2])]),
    "rule": make_rule("r2"),
}

KINDS = sorted(LOOKALIKES)


def ids(atoms):
    """Object identities, to compare *which* occurrences a multiset holds."""
    return [id(atom) for atom in atoms]


class TestIndexAddressedRemoval:
    """Occurrences are located through the atom's primary index bucket."""

    def test_first_duplicate_leaves_later_ones_stay(self):
        first, second, third = IntAtom(1), IntAtom(1), IntAtom(1)
        ms = Multiset([first, IntAtom(2), second, third])
        ms.remove(1)
        assert ids(ms.atoms()[1:]) == ids([second, third])
        assert ms.count(1) == 2
        ms.remove(1)
        assert ids(ms.atoms()[1:]) == ids([third])

    def test_bucket_deleted_only_when_empty(self):
        ms = Multiset([Symbol("A"), Symbol("A"), Symbol("B")])
        ms.remove(Symbol("A"))
        assert ms.has_all_candidates([("symbol", "A")])
        assert ms.has_symbol("A")
        ms.remove(Symbol("A"))
        assert not ms.has_all_candidates([("symbol", "A")])
        assert not ms.has_symbol("A")
        assert ms.has_all_candidates([("kind", "symbol")])  # B still holds the kind bucket
        ms.remove(Symbol("B"))
        assert not ms.has_all_candidates([("kind", "symbol")])
        assert ms.candidates(None) == []

    def test_remove_identical_skips_an_equal_twin(self):
        twin, target = TupleAtom([Symbol("SRC"), 1]), TupleAtom([Symbol("SRC"), 1])
        assert twin == target and twin is not target
        ms = Multiset([twin, target])
        ms.remove_identical(target)
        assert len(ms) == 1 and ms.atoms()[0] is twin
        assert ms.candidates(("tuple", "SRC")) == [twin]
        with pytest.raises(KeyError):
            ms.remove_identical(target)  # only the equal twin is left

    def test_remove_identical_of_a_repeated_object_takes_the_first_occurrence(self):
        marker = Symbol("ADAPT")
        ms = Multiset([marker, 7, marker])
        ms.remove_identical(marker)
        assert [str(a) for a in ms.atoms()] == ["7", "ADAPT"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_present_atom_of_every_kind_is_found_and_removed(self, kind):
        atom = one_of_each_kind()[kind]
        ms = Multiset([LOOKALIKES[kind].copy(), atom])
        assert atom in ms and ms.count(atom) == 1
        ms.remove(atom.copy())  # an equal atom, not the stored object
        assert atom not in ms and ms.count(atom) == 0
        assert ms.atoms() == [LOOKALIKES[kind]]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("neighbour", [False, True], ids=["empty", "lookalike-present"])
    def test_absent_atom_of_every_kind(self, kind, neighbour):
        atom = one_of_each_kind()[kind]
        ms = Multiset([LOOKALIKES[kind].copy()] if neighbour else [])
        before = ms.version
        assert atom not in ms
        assert ms.count(atom) == 0
        assert ms.discard(atom) is False
        with pytest.raises(KeyError):
            ms.remove(atom)
        with pytest.raises(KeyError):
            ms.remove_identical(atom)
        assert ms.version == before and len(ms) == int(neighbour)

    def test_remove_symbol_absent_with_other_symbols_present(self):
        ms = Multiset([Symbol("A")])
        assert ms.remove_symbol("B") is False
        assert ms.remove_symbol("A") is True
        assert len(ms) == 0

    def test_no_cross_kind_match(self):
        ms = Multiset([IntAtom(1), StringAtom("A")])
        assert FloatAtom(1.0) not in ms and BoolAtom(True) not in ms and Symbol("A") not in ms
        assert not ms.discard(FloatAtom(1.0)) and not ms.discard(Symbol("A"))
        assert len(ms) == 2

    def test_a_second_entry_for_a_nested_solution_is_refused(self):
        inner = Multiset([1])
        sub = Subsolution(inner)
        first = TupleAtom([Symbol("T"), sub])
        second = TupleAtom([Symbol("T"), sub])  # the same solution in a second tuple
        ms = Multiset([first, 5])
        assert_refused(ms, second)
        assert ms.nested_solutions() == [inner]
        ms.note_inert()
        inner.add(2)  # held by the first entry: still invalidates the parent
        assert not ms.known_inert
        ms.remove_identical(first)
        assert ms.nested_solutions() == [] and inner._holder is None
        before = ms.version
        inner.add(3)  # disowned
        assert ms.version == before
        ms.add(second)  # free to join again, as the second tuple
        assert ms.nested_solutions() == [inner] and [entry.atom for entry in ms._nested] == [second]

    def test_rule_removal_refreshes_the_priority_cache(self):
        low, high = make_rule("low"), Rule("high", [Var("x", kind="int")], [], priority=5)
        ms = Multiset([low, high])
        assert ms.rules_by_priority() == [high, low]
        ms.remove(make_rule("high"))  # rules are equal by name
        assert ms.rules_by_priority() == [low] and ms.rules() == [low]

    @given(
        st.lists(
            st.tuples(st.sampled_from(["add", "remove", "remove_identical", "discard"]), st.integers(0, 11)),
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_a_naive_list_scan(self, script):
        """Same occurrence, same order, same answers as scanning a plain list."""
        pool = [
            IntAtom(1), IntAtom(1), FloatAtom(1.0), StringAtom("1"), Symbol("A"), Symbol("A"),
            TupleAtom([Symbol("A"), 1]), TupleAtom([Symbol("A"), 1]), TupleAtom([1, Symbol("A")]),
            ListAtom([1]), Subsolution([1]), Subsolution([1]),
        ]
        ms, model = Multiset(), []
        for operation, which in script:
            atom = pool[which]
            if operation == "add":
                if atom._mutable and any(stored is atom for stored in model):
                    assert_refused(ms, atom)  # a solution has one holder
                else:
                    ms.add(atom)
                    model.append(atom)
                continue
            if operation == "remove_identical":
                position = next((i for i, stored in enumerate(model) if stored is atom), None)
            else:
                position = next((i for i, stored in enumerate(model) if stored == atom), None)
            if position is not None:
                del model[position]
            if operation == "discard":
                assert ms.discard(atom) is (position is not None)
            elif position is None:
                with pytest.raises(KeyError):
                    getattr(ms, operation)(atom)
            else:
                getattr(ms, operation)(atom)
            assert ids(ms.atoms()) == ids(model)
            for probe in pool:
                assert (probe in ms) is any(stored == probe for stored in model)
                assert ms.count(probe) == sum(1 for stored in model if stored == probe)
            for kind in {stored.kind for stored in pool}:
                assert ids(ms.candidates(("kind", kind))) == ids([a for a in model if a.kind == kind])


# --------------------------------------------------------------------------
# Flagged entries and plausible-candidate memories: the two things the engine
# stops re-deriving by walking the level
# --------------------------------------------------------------------------

#: broad-keyed patterns (kind bucket or no key): the ones that get a memory
_RESULT_HOLDER = TuplePattern(
    Var("t", kind="symbol"),
    SolutionPattern(
        TuplePattern(SymbolPattern("RES"), SolutionPattern(Var("r"), rest=Omega("wres"))),
        rest=Omega("wt"),
    ),
)
_NESTED_TUPLE = TuplePattern(
    Var("h", kind="symbol"),
    TuplePattern(Var("g", kind="symbol"), SolutionPattern(Var("x"), rest=Omega("w"))),
)
_NON_EMPTY = SolutionPattern(Var("x", kind="int"), rest=Omega("w"))
_MEMORY_PATTERNS = (_RESULT_HOLDER, _NESTED_TUPLE, _NON_EMPTY, Var("n", kind="int"), Var("any"))


def _held_solutions(atom):
    """Every solution held anywhere in ``atom`` (not inside those solutions)."""
    if isinstance(atom, Subsolution):
        return [atom.solution]
    if isinstance(atom, TupleAtom):
        return [s for element in atom.elements for s in _held_solutions(element)]
    if isinstance(atom, ListAtom):
        return [s for item in atom.items for s in _held_solutions(item)]
    return []


def _root_of(solution):
    """The outermost solution enclosing ``solution`` (itself when nothing holds it)."""
    while solution._holder is not None:
        solution = solution._holder[0]
    return solution


def _can_react(solution):
    """A scan for what ``Multiset.can_react`` reads off the index: a rule, or
    a solution the engine descends into (an atom's own, or a tuple element's)."""
    return any(
        atom.kind == "rule"
        or isinstance(atom, Subsolution)
        or (isinstance(atom, TupleAtom) and any(isinstance(e, Subsolution) for e in atom.elements))
        for atom in solution.atoms()
    )


class FlagsAndMemories(RuleBasedStateMachine):
    """Random nested solutions under random mutations and engine-like passes.

    After every step, at every level: the flagged entries' solutions cover
    the nested solutions that can react (hold a rule or a nested solution)
    and are not proven inert, in ``nested_solutions()`` order, and a solution
    that cannot react is never handed out for a visit; every solution knows
    the one entry that holds it, and a second holder or a cycle is refused;
    and at the root each memory covers the
    bucket entries the pattern's pre-check does not refute, in bucket order.
    """

    def __init__(self):
        super().__init__()
        self.root = Multiset()
        #: every solution ever made, kept alive so no identity is recycled
        self.solutions = [self.root]
        self.shared = self.fresh([1])
        self.tasks = 0

    def fresh(self, contents=()):
        solution = Multiset(contents)
        self.solutions.append(solution)
        return solution

    # ------------------------------------------------------------- mutations
    @rule(with_result=st.booleans())
    def add_task(self, with_result):
        self.tasks += 1
        fields = self.fresh([
            TupleAtom([Symbol("RES"), Subsolution(self.fresh([7] if with_result else []))]),
            TupleAtom([Symbol("IN"), Subsolution(self.fresh())]),
        ])
        self.root.add(TupleAtom([Symbol(f"T{self.tasks}"), Subsolution(fields)]))

    @rule(value=st.integers(0, 2))
    def add_scalar(self, value):
        self.root.add(value)

    @rule(size=st.integers(0, 2))
    def add_subsolution(self, size):
        self.root.add(Subsolution(self.fresh(range(size))))

    @rule(twice=st.booleans())
    def add_alias(self, twice):
        # one solution into a second entry, or twice into one: refused
        holders = [Subsolution(self.shared)] * (2 if twice else 1)
        atom = TupleAtom([Symbol("A"), *holders])
        if twice or self.shared._holder is not None:
            assert_refused(self.root, atom)
        else:
            self.root.add(atom)

    @rule(back=st.integers(0, 31))
    def add_root_below(self, back):
        # the root under itself or anything it encloses: a cycle, refused
        below = [solution for solution in self.solutions if _root_of(solution) is self.root]
        assert_refused(below[-1 - back % len(below)], Subsolution(self.root))

    @rule()
    def add_tuple_in_tuple(self):
        self.root.add(TupleAtom([Symbol("N"), TupleAtom([Symbol("M"), Subsolution(self.fresh())])]))

    @rule()
    def add_list_held(self):
        self.root.add(ListAtom([Subsolution(self.fresh())]))

    @precondition(lambda self: len(self.root))
    @rule(back=st.integers(0, 31))
    def remove_entry(self, back):
        atoms = self.root.atoms()
        self.root.remove_identical(atoms[-1 - back % len(atoms)])

    @rule(back=st.integers(0, 31), value=st.integers(0, 2), adding=st.booleans())
    def patch_below(self, back, value, adding):
        # any solution but the root: one, two or three levels down, held or not
        # (counted from the newest, which small draws then favour)
        target = self.solutions[1:][-1 - back % (len(self.solutions) - 1)]
        enclosing, holder = [], target._holder
        while holder is not None:  # every solution the change must invalidate, however deep it sits
            enclosing.append((holder[0], holder[0].version))
            holder = holder[0]._holder
        changed = target.add(value) is not None if adding else target.discard(value)
        assert all((holder.version > before) is changed for holder, before in enclosing)

    @rule(back=st.integers(0, 31), adding=st.booleans())
    def rule_below(self, back, adding):
        # a rule injected into (or retired from) any solution, field bodies
        # included: what makes a leaf able to react, and unable again
        target = self.solutions[-1 - back % len(self.solutions)]
        if adding:
            target.add(make_rule("injected"))
        else:
            target.discard(make_rule("injected"))

    @rule()
    def clear(self):
        self.root.clear()

    # ------------------------------------------------- what the engine does
    @rule(prove=st.booleans())
    def engine_pass(self, prove):
        """Refute through the memories, prove nested solutions inert, settle."""
        for pattern in _MEMORY_PATTERNS:
            memory = self.root.memory_for(pattern, pattern.index_key())
            rejects = compiled_reject(pattern)
            for entry in memory.snapshot():
                if rejects(entry.atom):
                    memory.refute(entry)
        for level in self.solutions:
            for solution in level.unsettled_solutions():
                if prove:
                    solution.note_inert()
            level.unsettled_solutions()  # unflags what is now proven, nothing else

    # ------------------------------------------------------------ invariants
    @invariant()
    def flagged_entries_cover_what_can_react_and_is_not_inert(self):
        for level in self.solutions:
            assert level.can_react == _can_react(level)
            open_solutions = [
                id(s) for s in level.nested_solutions() if _can_react(s) and not s.known_inert
            ]
            flagged = level._flagged or ()
            under_flags = [
                id(s)
                for entry, nested in (level._nested or {}).items()
                if entry in flagged
                for s in nested
                if _can_react(s) and not s.known_inert
            ]
            assert under_flags == open_solutions
            assert [id(s) for s in level.unsettled_solutions()] == open_solutions

    @invariant()
    def every_solution_knows_its_holder(self):
        expected = {}
        for level in self.solutions:
            for entry in level.live_entries():
                for held in _held_solutions(entry.atom):
                    assert id(held) not in expected  # one holder
                    expected[id(held)] = (id(level), id(entry))
        for solution in self.solutions:
            holder = solution._holder
            assert (holder and (id(holder[0]), id(holder[1]))) == expected.get(id(solution))

    @invariant()
    def memories_cover_what_is_not_refuted(self):
        for pattern in _MEMORY_PATTERNS:
            key = pattern.index_key()
            remembered = self.root.memory_for(pattern, key).snapshot()
            kept = set(remembered)
            bucket = self.root.live_entries(key)
            assert remembered == [entry for entry in bucket if entry in kept]
            rejects = compiled_reject(pattern)
            assert all(entry in kept for entry in bucket if not rejects(entry.atom))


FlagsAndMemories.TestCase.settings = settings(max_examples=100, stateful_step_count=50, deadline=None)
TestFlagsAndMemories = FlagsAndMemories.TestCase


class TestMemoryLifetime:
    def test_head_keyed_patterns_get_no_memory(self):
        ms = Multiset([TupleAtom([Symbol("RES"), 1])])
        pattern = TuplePattern(SymbolPattern("RES"), Var("x"))
        assert ms.memory_for(pattern, pattern.index_key()) is None
        assert ms._memories is None  # and nothing was allocated to find that out

    def test_a_retired_rule_takes_its_memories_along(self):
        once = Rule("once", [Var("x", kind="int"), Var("y", kind="int")], [], one_shot=True)
        ms = Multiset([once, 1, 2, 3])
        assert ReductionEngine().reduce(ms).reactions == 1
        assert once not in ms.rules()
        assert not ms._memories

    def test_a_refuted_entry_returns_when_something_changes_below_it(self):
        waiting = Multiset()
        ms = Multiset([5, Subsolution(waiting)])
        memory = ms.memory_for(_NON_EMPTY, _NON_EMPTY.index_key())
        (entry,) = memory.snapshot()
        assert compiled_reject(_NON_EMPTY)(entry.atom)
        memory.refute(entry)
        assert memory.snapshot() == []
        waiting.add(1)
        assert memory.snapshot() == [entry]

    def test_an_entry_returning_out_of_turn_waits_apart_and_reads_in_bucket_order(self):
        """Structural, not timed: the entries that did not move stay where they
        are (the same dictionary, never re-sorted), and a read merges the late one
        into bucket order; folding waits until the late ones outgrow an eighth."""
        held = [Multiset() for _ in range(40)]
        ms = Multiset([Subsolution(solution) for solution in held])
        memory = ms.memory_for(_NON_EMPTY, _NON_EMPTY.index_key())
        entries = list(ms.live_entries(_NON_EMPTY.index_key()))
        for entry in entries[:20]:  # what the engine refutes: every empty one up to here
            memory.refute(entry)
        kept = memory.entries
        held[12].add(1)
        held[3].add(1)
        assert memory.late == [entries[3], entries[12]] and memory.entries is kept
        assert memory.snapshot() == [entries[3], entries[12], *entries[20:]] and memory.entries is kept
        memory.refute(entries[12])
        held[7].add(1)
        held[5].add(1)  # three late ones against twenty: past an eighth, the next read folds them
        assert memory.late == [entries[3], entries[5], entries[7]]
        assert memory.snapshot() == [entries[3], entries[5], entries[7], *entries[20:]]
        assert memory.late == [] and list(memory.entries) == memory.snapshot()
        held[9].add(1)
        ms.remove_identical(entries[9].atom)  # gone from the level: gone from the memory, late or not
        ms.remove_identical(entries[5].atom)
        assert memory.late == [] and memory.snapshot() == [entries[3], entries[7], *entries[20:]]


class TestFlagSetFootprint:
    def test_the_flag_set_of_a_settled_level_is_small_again(self):
        """Structural, not timed: ``to_multiset`` flags every task and a set
        never shrinks its table, so the set that once held the whole level is
        replaced by one of what is still unsettled — or every later
        ``unsettled_solutions()`` walks 2000 slots to find two entries."""
        import sys

        from repro.hocl import default_registry
        from repro.hoclflow import encode_workflow
        from repro.hoclflow.generic_rules import register_workflow_externals
        from repro.scenarios import build_scenario

        solution = encode_workflow(build_scenario("montage:size=2000,seed=1")).to_multiset()
        assert len(solution._flagged) == 2000 and sys.getsizeof(solution._flagged) > 32_000
        externals = register_workflow_externals(default_registry(), lambda task, service, parameters: task)
        assert ReductionEngine(externals=externals, max_steps=1_000_000).reduce(solution).inert
        assert len(solution._flagged) <= 8 and sys.getsizeof(solution._flagged) <= sys.getsizeof(set(range(8)))
        assert not solution.unsettled_solutions()
