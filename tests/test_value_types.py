"""The value types of the chemistry and of the agents keep their contract as
plain slotted classes: what a dataclass gave them (equality by class and
fields, ``repr``, keyword construction, immutability where there was any),
and the atoms' constructor errors and sharing rules."""

import dataclasses
import pickle
import re

import pytest

from repro.agents import Action, SendAdapt, SendResult, StartInvocation, StatusUpdate
from repro.hocl import (
    AtomError,
    BindingView,
    FloatAtom,
    IntAtom,
    ListAtom,
    Match,
    Multiset,
    ReductionReport,
    ScalarAtom,
    StringAtom,
    Subsolution,
    Symbol,
    TupleAtom,
)
from repro.hocl.engine import ReactionRecord

ACTIONS = [
    SendResult("merge", IntAtom(3)),
    SendAdapt("T2p", 2, "replace-T2"),
    StartInvocation("svc", ("x", 1)),
    StatusUpdate("ready"),
]


class TestActions:
    def test_equal_by_class_and_fields(self):
        assert SendResult("b", 1) == SendResult(destination="b", value=1)
        assert SendResult("b", 1) != SendResult("b", 2)
        assert SendAdapt("b") == SendAdapt("b", 1, "") != SendAdapt("b", 2)
        assert StartInvocation("svc") == StartInvocation("svc", ())
        assert StatusUpdate("ready") != SendAdapt("ready")  # same first field, other class
        assert SendResult("b", 1) != ("b", 1) and Action() == Action()

    def test_hashable_like_the_tuple_of_their_fields(self):
        assert hash(SendResult("b", 1)) == hash(("b", 1))
        assert len({SendResult("b", 1), SendResult("b", 1), StatusUpdate("ready"), StatusUpdate("ready", "")}) == 2

    @pytest.mark.parametrize("action", ACTIONS, ids=lambda action: type(action).__name__)
    def test_assignment_raises(self, action):
        field = action.__slots__[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(action, field, "elsewhere")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(action, field)
        with pytest.raises(AttributeError):
            action.extra = 1
        assert not hasattr(action, "__dict__")

    def test_repr_unchanged(self):
        assert [repr(action) for action in ACTIONS] == [
            "SendResult(destination='merge', value=IntAtom(3))",
            "SendAdapt(destination='T2p', count=2, adaptation='replace-T2')",
            "StartInvocation(service='svc', parameters=('x', 1))",
            "StatusUpdate(state='ready', detail='')",
        ]


class TestReports:
    def test_keyword_construction_and_fresh_defaults(self):
        report = ReductionReport(reactions=2, match_attempts=3, inert=False, rule_fires={"r": 2}, patched=1)
        assert (report.reactions, report.match_attempts, report.inert, report.rule_fires) == (2, 3, False, {"r": 2})
        assert (report.patched, report.history, report.effects) == (1, [], [])
        first, second = ReductionReport(), ReductionReport()
        first.history.append(ReactionRecord("r", 0, 1, 1))
        first.rule_fires["r"] = 1
        first.effects.append(StatusUpdate("ready"))
        assert second == ReductionReport() != first

    def test_merge_and_equality(self):
        left = ReductionReport(reactions=1, match_attempts=2, rule_fires={"a": 1})
        left.history.append(ReactionRecord("a", 0, 2, 1))
        right = ReductionReport(reactions=2, inert=False, rule_fires={"a": 1, "b": 1}, patched=2)
        right.effects.append(SendResult("b", 1))
        left.merge(right)
        assert left == ReductionReport(
            reactions=3, match_attempts=2, inert=False, history=[ReactionRecord("a", 0, 2, 1)],
            rule_fires={"a": 2, "b": 1}, patched=2, effects=[SendResult("b", 1)],
        )  # fmt: skip
        assert left != right and ReductionReport() != object()

    def test_unhashable_and_shown_as_their_constructor_call(self):
        with pytest.raises(TypeError):
            hash(ReductionReport())
        with pytest.raises(TypeError):
            hash(ReactionRecord("r", 0, 1, 1))
        assert repr(ReactionRecord("r", 1, 2, 3)) == "ReactionRecord(rule='r', depth=1, consumed=2, produced=3)"
        assert repr(ReductionReport()).startswith("ReductionReport(reactions=0, match_attempts=0, inert=True, history=[],")


class TestMatch:
    def test_a_plain_mapping_is_wrapped(self):
        atom = IntAtom(1)
        match = Match({"x": atom}, [atom])
        assert isinstance(match.bindings, BindingView) and match.bindings == {"x": atom}
        assert match.consumed == [atom]
        view = BindingView({"x": atom})
        assert Match(bindings=view).bindings is view and Match(view).consumed == []
        assert Match(view).consumed is not Match(view).consumed

    def test_a_view_wraps_a_dict_as_it_is_and_copies_any_other_mapping(self):
        data = {"x": IntAtom(1)}
        shared, copied = BindingView(data), BindingView(BindingView(data))
        data["y"] = IntAtom(2)
        assert "y" in shared and "y" not in copied
        assert BindingView([("x", IntAtom(1))]) == {"x": IntAtom(1)}


class TestAtoms:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Symbol(""), "Symbol requires a non-empty string name, got ''"),
            (lambda: Symbol(5), "Symbol requires a non-empty string name, got 5"),
            (lambda: IntAtom(True), "IntAtom requires an int, got True"),
            (lambda: FloatAtom("x"), "FloatAtom requires a number, got 'x'"),
            (lambda: TupleAtom([]), "TupleAtom requires at least one element"),
            (lambda: TupleAtom([{"a": 1}]), "cannot represent {'a': 1} (dict) as an HOCL atom"),
        ],
    )
    def test_constructor_errors_unchanged(self, build, message):
        with pytest.raises(AtomError, match=f"^{re.escape(message)}$"):
            build()

    def test_scalar_values_and_hashes(self):
        assert IntAtom(3).value == 3 and FloatAtom(3).value == 3.0 and isinstance(FloatAtom(3).value, float)
        assert hash(IntAtom(3)) == hash(("IntAtom", 3)) and hash(StringAtom("a")) == hash(("StringAtom", "a"))
        assert hash(Symbol("A")) == hash(("Symbol", "A"))

    def test_a_scalar_subclass_builds_through_the_base_and_hashes_by_its_own_name(self):
        class Celsius(ScalarAtom):
            __slots__ = ()

            def __init__(self, value):
                super().__init__(float(value))

        class Count(IntAtom):
            __slots__ = ()

        assert Celsius(3).value == 3.0 and hash(Celsius(3)) == hash(("Celsius", 3.0))
        assert hash(Count(3)) == hash(("Count", 3)) and Count(3) != IntAtom(3)

    def test_a_subsolution_wraps_a_multiset_without_copying(self):
        solution = Multiset([1])
        assert Subsolution(solution).solution is solution
        assert Subsolution([1, 2]).solution == Multiset([2, 1])

    def test_tuples_and_lists_coerce_and_note_what_holds_a_solution(self):
        plain, holding = TupleAtom(["a", 1]), TupleAtom([Symbol("T"), Subsolution()])
        assert [type(element) for element in plain] == [StringAtom, IntAtom] and not plain._mutable
        assert holding._mutable and ListAtom([1, Subsolution()])._mutable and not ListAtom([1, "a"])._mutable
        assert TupleAtom([plain])._mutable is False and TupleAtom([1, holding])._mutable is True

    def test_symbol_interning_stops_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(Symbol, "_interned", {})
        monkeypatch.setattr(Symbol, "_INTERN_LIMIT", 2)
        assert Symbol("a") is Symbol("a") and Symbol("b") is Symbol("b")
        late = Symbol("c")
        assert late == Symbol("c") and late is not Symbol("c") and hash(late) == hash(Symbol("c"))
        assert sorted(Symbol._interned) == ["a", "b"]
        assert pickle.loads(pickle.dumps(Symbol("a"))) is Symbol("a")
