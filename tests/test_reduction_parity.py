"""Trace parity of the incremental engine against the naive walk.

The engine's optimisations (inertness caching, head-symbol indexing,
quick-reject pre-checks, flagged-entry descent, plausible-candidate memories,
cached structural hashes, kept anchors) are all required to be
*trace-preserving*: reducing the same solution must fire exactly the same
rules in exactly the same order as the naive re-reduce-everything walk of
``reduction_reference.py``, which states the parity contract.  These tests
lock that property on the two workflow shapes the paper measures (Montage and
the fully-connected diamond), against a brute-force search on random programs
and every scenario family, on every runtime that enacts a family, and on the
invalidation edges the book-keeping introduces.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from reduction_reference import BruteForceEngine, NaiveEngine, assert_parity, reduce_workflow, repositioned, trace
from repro.executors.centralized import CentralizedExecutor
from repro.hocl import (
    AtomError,
    Call,
    IntAtom,
    Literal,
    Multiset,
    Omega,
    ReductionEngine,
    ReductionError,
    ReductionReport,
    Ref,
    Rule,
    RulePattern,
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
    find_matches,
)
from repro.hocl.matching import first_match
from repro.hoclflow import encode_workflow
from repro.runtime import GinFlow
from repro.scenarios import available_scenarios, build_scenario
from repro.workflow import diamond_workflow
from repro.workflow.montage import montage_workflow

_FAMILIES = available_scenarios()


def _integers(function):
    """An external applying ``function`` to the values of its integer arguments."""
    return lambda args, _bindings: function(*(atom.value for atom in args))


#: The externals the integer programs below call.
ARITHMETIC = default_registry()
ARITHMETIC.register("max", _integers(max))
ARITHMETIC.register("add", _integers(lambda a, b: a + b))
ARITHMETIC.register("pred", _integers(lambda x: x - 1))


class TestWorkflowTraceParity:
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
    """A quick-reject verdict must never survive a relevant mutation."""

    def test_solution_pattern_rejection_expires_on_mutation(self):
        pattern = SolutionPattern(Var("x"), rest=Omega("w"))
        empty = Subsolution()
        assert pattern.quick_reject(empty)  # needs at least one atom
        assert pattern.quick_reject(empty)
        empty.solution.add(1)
        assert not pattern.quick_reject(empty)
        matches = list(pattern.match(empty, {}))
        assert len(matches) == 1

    def test_tuple_pattern_rejection_expires_on_nested_mutation(self):
        # RES : <w> with an atom inside — the task-field idiom of gw_call
        pattern = TuplePattern(
            SymbolPattern("RES"), SolutionPattern(Var("res"), rest=Omega("w"))
        )
        res = TupleAtom([Symbol("RES"), Subsolution()])
        assert pattern.quick_reject(res)
        assert pattern.quick_reject(res)
        res.elements[1].solution.add("value")
        assert not pattern.quick_reject(res)
        assert list(pattern.match(res, {}))

    def test_immutable_tuple_rejection_is_permanent_and_sound(self):
        pattern = TuplePattern(SymbolPattern("SRC"), Var("x"))
        other = TupleAtom([Symbol("DST"), 1])
        assert pattern.quick_reject(other)
        assert pattern.quick_reject(other)
        matching = TupleAtom([Symbol("SRC"), 2])
        assert not pattern.quick_reject(matching)

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
# Brute-force reference search, scaling of the book-keeping, kept flags
# --------------------------------------------------------------------------


def _firing_log():
    """An observer recording each reaction with the atoms it matched."""
    log = []

    def observer(rule, match, depth):
        log.append((rule.name, depth, [str(atom) for atom in match.consumed]))

    return log, observer


class TestAgainstBruteForceSearch:
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_every_scenario_family_fires_the_same_reactions(self, family):
        fast_log, fast_observer = _firing_log()
        slow_log, slow_observer = _firing_log()
        fast, _, _ = reduce_workflow(build_scenario(f"{family}:size=12,seed=1"), observer=fast_observer)
        slow, _, _ = reduce_workflow(build_scenario(f"{family}:size=12,seed=1"), BruteForceEngine, observer=slow_observer)
        assert fast_log == slow_log
        assert trace(fast) == trace(slow)
        assert fast.rule_fires == slow.rule_fires

    @staticmethod
    def _cells_program(cells, take_first, reposition=False):
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
        solution = Multiset([repositioned(take) if reposition else take, total])
        for index, values in enumerate(cells):
            body = Multiset([TupleAtom([Symbol("VAL"), Subsolution([*values, fold])])])
            solution.add(TupleAtom([Symbol(f"C{index}"), Subsolution(body)]))
        return solution

    @staticmethod
    def _refill(solution, cell, value):
        holder = solution.find_tuple(f"C{cell}")
        holder.elements[1].solution.find_tuple("VAL").elements[1].solution.add(value)

    @given(
        cells=st.lists(st.lists(st.integers(0, 9), max_size=3), min_size=1, max_size=6),
        refills=st.lists(
            st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=3), max_size=4
        ),
        take_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_programs_fire_the_same_reactions_round_after_round(
        self, cells, refills, take_first
    ):
        fast_log, fast_observer = _firing_log()
        slow_log, slow_observer = _firing_log()
        fast_solution = self._cells_program(cells, take_first)
        slow_solution = self._cells_program(cells, take_first)
        fast = ReductionEngine(externals=ARITHMETIC, observer=fast_observer)
        slow = BruteForceEngine(externals=ARITHMETIC, observer=slow_observer)
        for refill in [[]] + refills:
            for cell, value in refill:
                for solution in (fast_solution, slow_solution):
                    self._refill(solution, cell % len(cells), value)
            fast_report = fast.reduce(fast_solution)
            slow_report = slow.reduce(slow_solution)
            assert fast_log == slow_log
            assert trace(fast_report) == trace(slow_report)
            assert str(fast_solution) == str(slow_solution)  # same atoms, same order
            assert fast.is_inert(fast_solution)


class TestBookkeepingScaling:
    def test_checks_per_reaction_do_not_grow_with_the_level(self, monkeypatch):
        """Clock-free: the structural checks (``quick_reject``) and inertness
        probes (``known_inert``) one reaction costs are the same on an
        8x larger centralised Montage — they follow what changed, not how
        many task sub-solutions sit in the level."""
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        for cls in (Var, Literal, TuplePattern, SolutionPattern, RulePattern):
            monkeypatch.setattr(cls, "quick_reject", counted("quick_reject", cls.quick_reject))
        monkeypatch.setattr(
            Multiset, "known_inert", property(counted("known_inert", Multiset.known_inert.fget))
        )
        per_reaction = {}
        for tasks in (100, 800):
            calls.clear()
            report, _, _ = reduce_workflow(montage_workflow(projections=tasks - 10))
            per_reaction[tasks] = {name: count / report.reactions for name, count in calls.items()}
        for name in ("quick_reject", "known_inert"):
            small, large = per_reaction[100][name], per_reaction[800][name]
            assert 0.75 * small <= large <= 1.25 * small, per_reaction


#: the random cell programs of `TestAgainstBruteForceSearch`, and their refills
_CELLS = st.lists(st.lists(st.integers(0, 9), max_size=3), min_size=1, max_size=6)
_REFILLS = st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=3), max_size=4)


class TestInPlaceReactions:
    """Clock-free: a reaction costs what it changes.  Kept anchors stay put,
    a rule-free field body is never visited, and the engine's first-match
    search is the enumerator's first result."""

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
        monkeypatch.setattr(Multiset, "_remove_entry", counted("remove", Multiset._remove_entry))
        before = self._layout(core.solution)
        core.invocation_succeeded("value")
        assert core.rule_fires["gw_pass"] == 2 and core.results_sent == 2
        assert (calls["add"], calls["remove"]) == (0, 0)
        assert self._layout(core.solution) == before

    @pytest.mark.parametrize("fan_in", [32, 512])
    def test_a_stimulus_visits_the_level_and_no_field_body(self, fan_in, monkeypatch):
        core = self._agent("merge", width=fan_in)
        visited = []
        reduce_level = ReductionEngine._reduce_level

        def counted(engine, solution, depth, report):
            visited.append(id(solution))
            return reduce_level(engine, solution, depth, report)

        monkeypatch.setattr(ReductionEngine, "_reduce_level", counted)
        core.receive_result("T_1_1", "x")
        assert len(core.pending_sources()) == fan_in - 1
        assert visited == [id(core.solution)]
        # a rule makes its body able to react: visited on the very next reduce
        body = core.solution.find_tuple("IN").elements[1].solution
        assert not body.can_react
        body.add(Rule("never", [SymbolPattern("NEVER")], []))
        del visited[:]
        core.receive_result("T_1_2", "y")
        assert visited == [id(core.solution), id(body)]

    @given(
        cells=_CELLS,
        refills=_REFILLS,
        take_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_programs_agree_with_repositioned_anchors(self, cells, refills, take_first):
        """``take`` has a variable head: which cell it drains first may depend
        on where the anchors sit, the rest of the contract may not."""
        program = TestAgainstBruteForceSearch._cells_program
        refill = TestAgainstBruteForceSearch._refill
        in_place, moved = program(cells, take_first), program(cells, take_first, reposition=True)
        engines = ReductionEngine(externals=ARITHMETIC), ReductionEngine(externals=ARITHMETIC)
        for round_ in [[]] + refills:
            for cell, value in round_:
                refill(in_place, cell % len(cells), value)
                refill(moved, cell % len(cells), value)
            here, there = engines[0].reduce(in_place), engines[1].reduce(moved)
            assert_parity((here, in_place), (there, moved))
            assert sorted(trace(here)) == sorted(trace(there))

    @given(
        bags=st.lists(st.lists(st.integers(0, 9), max_size=4), min_size=1, max_size=5),
        refills=st.lists(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=3), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_head_keyed_programs_fire_in_the_same_order(self, bags, refills):
        """One drain rule per bag, every top-level pattern keyed by a head that
        names one tuple: where a kept anchor sits cannot matter."""

        def program(reposition):
            solution = Multiset([TupleAtom([Symbol("SINK"), Subsolution()])])
            for index, values in enumerate(bags):
                solution.add(TupleAtom([Symbol(f"B{index}"), Subsolution(values)]))
                drain = Rule(
                    f"drain{index}",
                    [
                        TuplePattern(
                            SymbolPattern(f"B{index}"),
                            SolutionPattern(Var("x", kind="int"), rest=Omega("w")),
                        ),
                        TuplePattern(SymbolPattern("SINK"), SolutionPattern(rest=Omega("ws"))),
                    ],
                    [
                        TupleTemplate(Symbol(f"B{index}"), SolutionTemplate(Splice("w"))),
                        TupleTemplate(Symbol("SINK"), SolutionTemplate(Ref("x"), Splice("ws"))),
                    ],
                )
                solution.add(repositioned(drain) if reposition else drain)
            return solution

        logs = _firing_log(), _firing_log()
        in_place, moved = program(False), program(True)
        engines = ReductionEngine(observer=logs[0][1]), ReductionEngine(observer=logs[1][1])
        for round_ in [[]] + refills:
            for bag, value in round_:
                for solution in (in_place, moved):
                    solution.find_tuple(f"B{bag % len(bags)}").elements[1].solution.add(value)
            here, there = engines[0].reduce(in_place), engines[1].reduce(moved)
            assert logs[0][0] == logs[1][0]
            assert trace(here) == trace(there)
            assert_parity((here, in_place), (there, moved))

    @staticmethod
    def _checked_first_match(searches):
        """``first_match``, held to the enumerator on every call it serves."""

        def checked(rule, solution):
            found = first_match(rule, solution)
            enumerated = find_matches(rule.patterns, solution, rule.guarded_condition, rule.given)
            expected = next(
                (m for m in enumerated if not any(atom is rule for atom in m.consumed)), None
            )
            assert (found is None) == (expected is None)
            if found is not None:
                assert [id(atom) for atom in found.consumed] == [id(atom) for atom in expected.consumed]
                assert found.bindings == expected.bindings
            searches["first_match"] += 1
            return found

        return checked

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_first_match_is_the_enumerators_first_on_every_family(self, family, monkeypatch):
        searches = Counter()
        checked = self._checked_first_match(searches)
        monkeypatch.setattr(ReductionEngine, "_find_match_excluding_self", staticmethod(checked))
        outcome = CentralizedExecutor().execute(build_scenario(f"{family}:size=12,seed=1"))
        assert outcome.report.inert
        assert searches["first_match"] == outcome.report.match_attempts

    @given(
        cells=_CELLS,
        refills=_REFILLS,
        take_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_match_is_the_enumerators_first_on_random_programs(self, cells, refills, take_first):
        checked = self._checked_first_match(Counter())
        solution = TestAgainstBruteForceSearch._cells_program(cells, take_first)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ReductionEngine, "_find_match_excluding_self", staticmethod(checked))
            engine = ReductionEngine(externals=ARITHMETIC)
            for round_ in [[]] + refills:
                for cell, value in round_:
                    TestAgainstBruteForceSearch._refill(solution, cell % len(cells), value)
                assert engine.reduce(solution).inert


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
                condition=lambda b: b.value("x") > 0,
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
