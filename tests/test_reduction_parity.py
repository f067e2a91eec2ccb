"""The incremental engine against the naive walk and HOCL's one-step relation.

The engine's optimisations (inertness caching, head-symbol indexing,
quick-reject pre-checks, flagged-entry descent, plausible-candidate memories,
cached structural hashes, kept anchors) are all required to be
*trace-preserving*: reducing the same solution must fire exactly the same
rules in exactly the same order as the naive re-reduce-everything walk of
``reduction_reference.py``.  And every step it takes is a step of the
relation ``hocl_semantics.py`` states, the one its promise names (the first
match in enumeration order).  These tests lock that on the two workflow
shapes the paper measures (Montage and the fully-connected diamond), on random
programs and every scenario family, on every runtime that enacts a family,
and on the invalidation edges the book-keeping introduces.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hocl_semantics import Chemistry, canon, ordered
from test_hocl_multiset import compiled_reject
from reduction_reference import (
    NaiveEngine,
    assert_on_the_relation,
    reduce_workflow,
    trace,
    walk_the_relation,
    watch_reactions,
    workflow_externals,
)
from repro.executors.centralized import CentralizedExecutor
from repro.hocl import (
    AtomError,
    Call,
    Compare,
    IntAtom,
    Literal,
    Multiset,
    Omega,
    ReductionEngine,
    ReductionError,
    ReductionReport,
    Ref,
    Rule,
    SolutionPattern,
    SolutionTemplate,
    Splice,
    Subsolution,
    Symbol,
    SymbolPattern,
    TupleAtom,
    TuplePattern,
    TupleTemplate,
    Var,
    default_registry,
)
from repro.hoclflow import encode_workflow
from repro.runtime import GinFlow
from repro.scenarios import available_scenarios, build_scenario
from repro.workflow import diamond_workflow
from repro.workflow.montage import montage_workflow

_FAMILIES = available_scenarios()

#: random cell programs (`TestOnTheRelation._cells_program`), and their refills
_CELLS = st.lists(st.lists(st.integers(0, 9), max_size=3), min_size=1, max_size=6)
_REFILLS = st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=3), max_size=4)


def _integers(function):
    """An external applying ``function`` to the values of its integer arguments."""
    return lambda args, _bindings: function(*(atom.value for atom in args))


#: The externals the integer programs below call.
ARITHMETIC = default_registry()
ARITHMETIC.register("max", _integers(max))
ARITHMETIC.register("add", _integers(lambda a, b: a + b))
ARITHMETIC.register("pred", _integers(lambda x: x - 1))


class TestWorkflowTraceParity:
    """The paper's two shapes here; every family: ``TestRuntimeParity``."""

    @pytest.mark.parametrize("projections", [5, 30])
    def test_montage_trace_identical(self, projections):
        incremental, _, _ = reduce_workflow(montage_workflow(projections=projections))
        naive, _, _ = reduce_workflow(montage_workflow(projections=projections), NaiveEngine)
        assert trace(incremental) == trace(naive)
        assert incremental.match_attempts <= naive.match_attempts

    @pytest.mark.parametrize("width,depth", [(3, 3), (6, 4)])
    def test_fully_connected_diamond_trace_identical(self, width, depth):
        incremental, _, _ = reduce_workflow(diamond_workflow(width, depth, connectivity="full"))
        naive, _, _ = reduce_workflow(diamond_workflow(width, depth, connectivity="full"), NaiveEngine)
        assert trace(incremental) == trace(naive)

    def test_simple_diamond_trace_identical(self):
        incremental, _, _ = reduce_workflow(diamond_workflow(4, 3, connectivity="simple"))
        naive, _, _ = reduce_workflow(diamond_workflow(4, 3, connectivity="simple"), NaiveEngine)
        assert trace(incremental) == trace(naive)


class TestRejectionCacheInvalidation:
    """A quick-reject verdict must never survive a relevant mutation: a
    pattern's pre-check (what its ``reject`` writes) refutes an atom only while
    the relation finds no match of the pattern on it."""

    def test_solution_pattern_rejection_expires_on_mutation(self):
        pattern = SolutionPattern(Var("x"), rest=Omega("w"))
        rejects, empty = compiled_reject(pattern), Subsolution()
        assert rejects(empty)  # needs at least one atom
        assert rejects(empty)
        empty.solution.add(1)
        assert not rejects(empty)
        assert len(list(Chemistry().match(pattern, canon(empty), {}))) == 1

    def test_tuple_pattern_rejection_expires_on_nested_mutation(self):
        # RES : <w> with an atom inside — the task-field idiom of gw_call
        pattern = TuplePattern(SymbolPattern("RES"), SolutionPattern(Var("res"), rest=Omega("w")))
        rejects, res = compiled_reject(pattern), TupleAtom([Symbol("RES"), Subsolution()])
        assert rejects(res)
        assert rejects(res)
        res.elements[1].solution.add("value")
        assert not rejects(res)
        assert list(Chemistry().match(pattern, canon(res), {}))

    def test_immutable_tuple_rejection_is_permanent_and_sound(self):
        pattern = TuplePattern(SymbolPattern("SRC"), Var("x"))
        rejects, other, matching = compiled_reject(pattern), TupleAtom([Symbol("DST"), 1]), TupleAtom([Symbol("SRC"), 2])
        assert rejects(other)
        assert rejects(other)
        assert not list(Chemistry().match(pattern, canon(other), {}))
        assert not rejects(matching)
        assert list(Chemistry().match(pattern, canon(matching), {}))

    def test_engine_refires_after_inertness_with_new_atoms(self):
        # a rule refuted by the quick checks must fire once its atom appears
        rule = Rule("grab", [TuplePattern(SymbolPattern("K"), Var("x"))], ["done"])
        solution = Multiset([rule])
        engine = ReductionEngine()
        report = engine.reduce(solution)
        assert report.reactions == 0
        solution.add(TupleAtom([Symbol("K"), 7]))
        report = engine.reduce(solution)
        assert report.reactions == 1
        assert solution.count("done") == 1


class TestDataLayerCaches:
    def test_symbols_are_interned(self):
        assert Symbol("ADAPT") is Symbol("ADAPT")
        assert Symbol("ADAPT") == Symbol("ADAPT")
        assert Symbol("A") != Symbol("B")

    def test_mutable_tuple_hash_tracks_nested_mutation(self):
        atom = TupleAtom([Symbol("RES"), Subsolution([1])])
        before = hash(atom)
        equal = TupleAtom([Symbol("RES"), Subsolution([1])])
        assert hash(equal) == before and equal == atom
        atom.elements[1].solution.add(2)
        assert atom != equal
        assert hash(atom) == hash(TupleAtom([Symbol("RES"), Subsolution([1, 2])]))

    def test_immutable_tuple_hash_is_stable(self):
        atom = TupleAtom([Symbol("SRC"), 1, "x"])
        assert hash(atom) == hash(TupleAtom([Symbol("SRC"), 1, "x"]))

    def test_nested_solutions_match_a_scan(self):
        solution = Multiset()
        solution.add(TupleAtom([Symbol("T1"), Subsolution([1])]))
        inner = Subsolution([2])
        solution.add(inner)
        solution.add(TupleAtom([Symbol("T2"), Subsolution([3]), Subsolution([4])]))

        def scan():
            nested = []
            for atom in solution.atoms():
                if isinstance(atom, Subsolution):
                    nested.append(atom.solution)
                elif isinstance(atom, TupleAtom):
                    nested.extend(
                        e.solution for e in atom.elements if isinstance(e, Subsolution)
                    )
            return nested

        assert [id(s) for s in solution.nested_solutions()] == [id(s) for s in scan()]
        solution.remove_identical(inner)
        assert [id(s) for s in solution.nested_solutions()] == [id(s) for s in scan()]

    def test_nested_solutions_order_survives_a_refused_second_holder(self):
        # the same sub-solution into a second, non-adjacent entry is refused
        # and the order stays; once its entry has left it joins at the end
        shared = Subsolution([1])
        solution = Multiset()
        first = solution.add(TupleAtom([Symbol("T1"), shared]))
        solution.add(Subsolution([2]))
        order, version = [id(shared.solution), id(solution.atoms()[1].solution)], solution.version
        with pytest.raises(AtomError):
            solution.add(TupleAtom([Symbol("T2"), shared]))
        assert [id(s) for s in solution.nested_solutions()] == order and solution.version == version
        solution.remove_identical(first)
        solution.add(TupleAtom([Symbol("T2"), shared]))
        assert [id(s) for s in solution.nested_solutions()] == order[::-1]

    def test_content_hash_changes_with_contents(self):
        solution = Multiset([1, 2])
        first = solution.content_hash()
        assert first == Multiset([2, 1]).content_hash()  # order-insensitive
        solution.add(3)
        assert solution.content_hash() != first


class TestRuntimeParity:
    """Every way of enacting a family reaches what one serial reduction does.

    The agent runtimes share the agent's interpreter, so the real clock's run
    fires the same rules to the same per-task results as the virtual clock's
    (here at another size and seed than
    ``test_enactment.py::TestCrossClockDifferential``'s); the centralised
    executor's single interpreter reproduces the naive walk's reaction history
    in order, with no more searches.
    """

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_centralized_executor_reproduces_the_naive_walk(self, family):
        outcome = CentralizedExecutor().execute(build_scenario(f"{family}:size=12,seed=1"))
        naive, solution, _ = reduce_workflow(build_scenario(f"{family}:size=12,seed=1"), NaiveEngine)
        assert outcome.report.inert and not outcome.errors
        assert outcome.solution.content_hash() == solution.content_hash()
        assert outcome.report.rule_fires == naive.rule_fires
        assert trace(outcome.report) == trace(naive)
        assert outcome.report.match_attempts <= naive.match_attempts

    @pytest.mark.parametrize("mode", ["asyncio"])
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_real_time_runtimes_agree_with_the_simulated_run(self, family, mode):
        def run(mode):
            report = GinFlow().run(build_scenario(f"{family}:size=10,seed=1"), mode=mode, timeout=60.0)
            assert report.succeeded and not report.timed_out
            return report

        simulated, other = run("simulated"), run(mode)
        assert other.results == simulated.results
        assert other.extra["rule_fires"] == simulated.extra["rule_fires"]
        assert other.reduction_reactions == simulated.reduction_reactions


class TestReportMergeAccounting:
    """`ReductionReport.merge` must add keys absent on either side."""

    def test_merge_adds_absent_rule_keys(self):
        left = ReductionReport(reactions=1, rule_fires={"a": 1})
        left.merge(ReductionReport(reactions=3, rule_fires={"b": 3}))
        assert left.rule_fires == {"a": 1, "b": 3}
        assert left.reactions == 4
        assert sum(left.rule_fires.values()) == left.reactions

    def test_merge_into_empty_report(self):
        merged = ReductionReport()
        merged.merge(ReductionReport(reactions=2, rule_fires={"r": 2}, inert=False, effects=["e"]))
        assert merged.rule_fires == {"r": 2} and merged.effects == ["e"]
        assert not merged.inert
        assert sum(merged.rule_fires.values()) == merged.reactions


# --------------------------------------------------------------------------
# The one-step relation, scaling of the book-keeping, kept flags
# --------------------------------------------------------------------------


class TestOnTheRelation:
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_every_scenario_family_is_a_path_of_the_relation(self, family):
        """Each centralised reaction is a step of the relation and, at the top
        level, the first match in enumeration order; a full reduce reaches the
        same solution by the same firings."""
        encoding = encode_workflow(build_scenario(f"{family}:size=12,seed=1"))
        assert_on_the_relation(encoding.to_multiset, workflow_externals(encoding, once=True))

    @staticmethod
    def _cells_program(cells, take_first):
        """Cells ``Ci : <VAL : <ints, max>>`` under two top-level rules.

        ``take`` (variable head: a whole-bucket pattern) moves a cell's
        reduced value to the top level, where ``sum`` (two kind-keyed
        patterns nothing ever refutes) folds the values.  A drained cell is
        refuted until something is put back into it.
        """
        fold = Rule(
            "max",
            [Var("x", kind="int"), Var("y", kind="int")],
            [Call("max", Ref("x"), Ref("y"))],
        )
        take = Rule(
            "take",
            [
                TuplePattern(
                    Var("c", kind="symbol"),
                    SolutionPattern(
                        TuplePattern(
                            SymbolPattern("VAL"),
                            SolutionPattern(Var("x", kind="int"), rest=Omega("w")),
                        ),
                        rest=Omega("wc"),
                    ),
                )
            ],
            [
                TupleTemplate(
                    Ref("c"),
                    SolutionTemplate(
                        TupleTemplate(Literal(Symbol("VAL")).atom, SolutionTemplate(Splice("w"))),
                        Splice("wc"),
                    ),
                ),
                Ref("x"),
            ],
            priority=1 if take_first else 0,
        )
        total = Rule(
            "sum",
            [Var("a", kind="int"), Var("b", kind="int")],
            [Call("add", Ref("a"), Ref("b"))],
            priority=0 if take_first else 1,
        )
        solution = Multiset([take, total])
        for index, values in enumerate(cells):
            body = Multiset([TupleAtom([Symbol("VAL"), Subsolution([*values, fold])])])
            solution.add(TupleAtom([Symbol(f"C{index}"), Subsolution(body)]))
        return solution

    @staticmethod
    def _refill(solution, cell, value):
        holder = solution.find_tuple(f"C{cell}")
        holder.elements[1].solution.find_tuple("VAL").elements[1].solution.add(value)

    @given(cells=_CELLS, refills=_REFILLS, take_first=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_programs_stay_on_the_relation_round_after_round(self, cells, refills, take_first):
        """Between rounds values are put back below drained cells, whose entries
        the memories refuted: every step is still one of the relation's, and the
        stepped solution is the one a full reduce reaches."""
        chemistry = Chemistry(ARITHMETIC)
        stepped, whole = self._cells_program(cells, take_first), self._cells_program(cells, take_first)
        engine = ReductionEngine(externals=ARITHMETIC)
        for refill in [[]] + refills:
            for cell, value in refill:
                for solution in (stepped, whole):
                    self._refill(solution, cell % len(cells), value)
            fired = walk_the_relation(stepped, ARITHMETIC, chemistry)
            report = engine.reduce(whole)
            assert dict(fired) == report.rule_fires
            assert stepped.content_hash() == whole.content_hash()

    @given(cells=st.lists(st.lists(st.integers(0, 9), max_size=2), min_size=1, max_size=3), take_first=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_the_engine_ends_in_the_one_normal_form(self, cells, take_first):
        """The cell programs are confluent: an exhaustive search of the relation
        reaches one inert solution, the one the engine reduces to."""
        solution = self._cells_program(cells, take_first)
        forms = Chemistry(ARITHMETIC).normal_forms(canon(solution))
        assert ReductionEngine(externals=ARITHMETIC).reduce(solution).inert
        assert forms == {canon(solution)}

    @given(
        bags=st.lists(st.lists(st.integers(0, 9), max_size=4), min_size=1, max_size=5),
        refills=st.lists(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=3), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_head_keyed_programs_stay_on_the_relation(self, bags, refills):
        """One drain rule per bag, every top-level pattern keyed by a head that
        names one tuple, the kept anchors in place."""
        solution = Multiset([TupleAtom([Symbol("SINK"), Subsolution()])])
        for index, values in enumerate(bags):
            solution.add(TupleAtom([Symbol(f"B{index}"), Subsolution(values)]))
            solution.add(
                Rule(
                    f"drain{index}",
                    [
                        TuplePattern(SymbolPattern(f"B{index}"), SolutionPattern(Var("x", kind="int"), rest=Omega("w"))),
                        TuplePattern(SymbolPattern("SINK"), SolutionPattern(rest=Omega("ws"))),
                    ],
                    [
                        TupleTemplate(Symbol(f"B{index}"), SolutionTemplate(Splice("w"))),
                        TupleTemplate(Symbol("SINK"), SolutionTemplate(Ref("x"), Splice("ws"))),
                    ],
                )
            )
        chemistry = Chemistry()
        for round_ in [[]] + refills:
            for bag, value in round_:
                solution.find_tuple(f"B{bag % len(bags)}").elements[1].solution.add(value)
            walk_the_relation(solution, None, chemistry)
        assert len(solution.find_tuple("SINK").elements[1].solution) == sum(map(len, bags)) + sum(map(len, refills))


class _Counted:
    """A candidate memory as a search reads it: each entry counted as it is
    offered to the pattern's pre-check, each refutation as it is handed back."""

    def __init__(self, memory, calls):
        self.memory, self.calls = memory, calls

    def open(self):
        for entry in self.memory.open():
            self.calls["visited"] += 1
            yield entry

    def close(self, refuted):
        self.calls["refuted"] += len(refuted)
        return self.memory.close(refuted)


class TestBookkeepingScaling:
    def test_checks_per_reaction_do_not_grow_with_the_level(self, monkeypatch):
        """Clock-free: the structural pre-checks the generated searches run
        (the memory entries they visit, and those they refute) and the
        inertness probes (``known_inert``) one reaction costs are the same on
        an 8x larger centralised Montage — they follow what changed, not how
        many task sub-solutions sit in the level."""
        calls = Counter()
        memory_for, inert = Multiset.memory_for, Multiset.known_inert.fget

        def known_inert(solution):
            calls["known_inert"] += 1
            return inert(solution)

        def counted(solution, pattern, key):
            memory = memory_for(solution, pattern, key)
            return None if memory is None else _Counted(memory, calls)

        monkeypatch.setattr(Multiset, "memory_for", counted)
        monkeypatch.setattr(Multiset, "known_inert", property(known_inert))
        per_reaction = {}
        for tasks in (100, 800):
            calls.clear()
            report, _, _ = reduce_workflow(montage_workflow(projections=tasks - 10))
            per_reaction[tasks] = {name: count / report.reactions for name, count in calls.items()}
        assert all(per_reaction[tasks]["visited"] and per_reaction[tasks]["refuted"] for tasks in per_reaction)
        for name in ("visited", "refuted", "known_inert"):
            small, large = per_reaction[100][name], per_reaction[800][name]
            assert 0.75 * small <= large <= 1.25 * small, per_reaction


class TestInPlaceReactions:
    """Clock-free: a reaction costs what it changes.  Kept anchors stay put,
    a rule-free field body is never visited, and every reaction fires its rule
    at the first match the relation enumerates on its level."""

    @staticmethod
    def _agent(task, width=2):
        from repro.agents import AgentCore

        core = AgentCore(encode_workflow(diamond_workflow(width, 1)).tasks[task])
        core.boot()
        return core

    @staticmethod
    def _layout(solution):
        """Every occurrence entry by identity: the level, then each bucket."""
        return (
            [id(entry) for entry in solution.live_entries()],
            {key: [id(entry) for entry in bucket] for key, bucket in solution._index.items()},
        )

    def test_a_kept_anchor_keeps_its_entry_and_its_place(self):
        bag = TupleAtom([Symbol("BAG"), Subsolution([1, 2, 3])])
        sink = TupleAtom([Symbol("SINK"), Subsolution()])
        drain = Rule(
            "drain",
            [
                TuplePattern(SymbolPattern("BAG"), SolutionPattern(Var("x", kind="int"), rest=Omega("w"))),
                TuplePattern(SymbolPattern("SINK"), SolutionPattern(rest=Omega("ws"))),
            ],
            [
                TupleTemplate(Symbol("BAG"), SolutionTemplate(Splice("w"))),
                TupleTemplate(Symbol("SINK"), SolutionTemplate(Ref("x"), Splice("ws"))),
            ],
        )
        solution = Multiset(["first", bag, "between", sink, drain, "last"])
        before = self._layout(solution)
        report = ReductionEngine().reduce(solution)
        assert report.reactions == 3 and len(sink.elements[1].solution) == 3
        assert self._layout(solution) == before

    def test_an_agent_local_gw_pass_firing_moves_nothing_at_the_top_level(self, monkeypatch):
        core = self._agent("split")  # booted: invoking, two destinations pending
        calls = Counter()

        def counted(name, function):
            def wrapper(self, *args):
                calls[name] += self is core.solution
                return function(self, *args)

            return wrapper

        monkeypatch.setattr(Multiset, "add", counted("add", Multiset.add))
        before = self._layout(core.solution)
        core.invocation_succeeded("value")
        assert core.rule_fires["gw_pass"] == 2 and core.results_sent == 2
        assert calls["add"] == 0  # and nothing left: every top-level entry is the one it was
        assert self._layout(core.solution) == before

    @pytest.mark.parametrize("fan_in", [32, 512])
    def test_a_stimulus_visits_the_level_and_no_field_body(self, fan_in, monkeypatch):
        core = self._agent("merge", width=fan_in)
        visited = {}  # every level the engine asks whether it is proven inert, in order
        inert = Multiset.known_inert.fget
        monkeypatch.setattr(Multiset, "known_inert", property(lambda solution: visited.setdefault(id(solution)) or inert(solution)))
        core.receive_result("T_1_1", "x")
        assert len(core.pending_sources()) == fan_in - 1
        assert list(visited) == [id(core.solution)]
        # a rule makes its body able to react: visited on the very next reduce
        body = core.solution.find_tuple("IN").elements[1].solution
        assert not body.can_react
        body.add(Rule("never", [SymbolPattern("NEVER")], []))
        visited.clear()
        core.receive_result("T_1_2", "y")
        assert list(visited) == [id(core.solution), id(body)]

    @staticmethod
    def _checked_reactions(chemistry, searches):
        """A reaction watcher: each reaction, at any depth, fires its rule at
        the first match :meth:`Chemistry.matches` enumerates on the level before
        it — the level after it is that match fired — or fires nothing where
        there is none."""

        def checked(run, solution, owner, externals, effects, clock):
            atoms = ordered(solution)[1]
            first = next(chemistry.matches(owner, atoms), None)
            fired = run(solution, owner, externals, effects, clock)
            searches["reaction"] += 1
            assert (fired is None) == (first is None), owner.name
            if first is not None:  # the engine, not the reaction, takes a one-shot rule out
                assert canon(solution) in chemistry._fire(owner, None, first, atoms), owner.name
            return fired

        return checked

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_first_match_is_the_enumerators_first_on_every_family(self, family, monkeypatch):
        encoding = encode_workflow(build_scenario(f"{family}:size=12,seed=1"))
        externals, searches = workflow_externals(encoding, once=True), Counter()
        watch_reactions(monkeypatch, self._checked_reactions(Chemistry(externals), searches))
        report = ReductionEngine(externals=externals).reduce(encoding.to_multiset())
        assert report.inert
        assert searches["reaction"] == report.match_attempts > 0

    @given(cells=_CELLS, refills=_REFILLS, take_first=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_first_match_is_the_enumerators_first_on_random_programs(self, cells, refills, take_first):
        searches = Counter()
        solution = TestOnTheRelation._cells_program(cells, take_first)
        with pytest.MonkeyPatch.context() as patch:
            watch_reactions(patch, self._checked_reactions(Chemistry(ARITHMETIC), searches))
            engine = ReductionEngine(externals=ARITHMETIC)
            for round_ in [[]] + refills:
                for cell, value in round_:
                    TestOnTheRelation._refill(solution, cell % len(cells), value)
                assert engine.reduce(solution).inert
        assert searches["reaction"] > 0


class TestFlagsSurviveFailure:
    def test_a_nested_solution_is_visited_again_after_a_reduction_error(self):
        failures = [RuntimeError("transient")]

        def flaky(args, _bindings):
            if failures:
                raise failures.pop()
            return args[0].value + 1

        externals = default_registry()
        externals.register("flaky", flaky)
        bump = Rule("bump", [Var("x", kind="int")], [Call("flaky", Ref("x"))], one_shot=True)
        nested = Multiset([1, bump])
        sibling = Multiset([Rule("mark", [SymbolPattern("GO")], ["went"], one_shot=True), Symbol("GO")])
        solution = Multiset([Subsolution(nested), TupleAtom([Symbol("S"), Subsolution(sibling)])])
        engine = ReductionEngine(externals=externals)
        with pytest.raises(ReductionError):
            engine.reduce(solution)
        assert not nested.known_inert and bump in nested.rules()
        report = engine.reduce(solution)
        assert report.inert and report.rule_fires == {"bump": 1, "mark": 1}
        assert IntAtom(2) in nested and "went" in sibling

    @pytest.mark.parametrize("same_engine", [False, True])
    def test_the_step_limit_leaves_the_rest_for_the_next_reduce(self, same_engine):
        """The cut keeps the flags: the outer rule still sees the entry whose
        solution had finished before the limit was hit."""

        def countdown():
            return Rule(
                "down",
                [Var("x", kind="int")],
                [Call("pred", Ref("x"))],
                condition=Compare(">", Ref("x"), 0),
            )

        def settled(name):
            pattern = TuplePattern(SymbolPattern(name), SolutionPattern(Literal(0), rest=Omega("w")))
            return Rule(f"settled-{name}", [pattern], [f"{name}-done"], one_shot=True)

        first, second = Multiset([3, countdown()]), Multiset([3, countdown()])
        solution = Multiset(
            [
                TupleAtom([Symbol("A"), Subsolution(first)]),
                TupleAtom([Symbol("B"), Subsolution(second)]),
                settled("A"),
                settled("B"),
            ]
        )
        engine = ReductionEngine(externals=ARITHMETIC, max_steps=4)
        cut = engine.reduce(solution)
        assert not cut.inert and cut.reactions == 4
        if same_engine:
            engine.max_steps = 100
        else:
            engine = ReductionEngine(externals=ARITHMETIC)
        rest = engine.reduce(solution)
        assert rest.inert and rest.reactions == 4
        assert IntAtom(0) in first and IntAtom(0) in second
        assert "A-done" in solution and "B-done" in solution
