"""The value types of the chemistry, of the agents and of the run path keep their
contract as plain slotted classes: what a dataclass gave them (equality by class
and fields, ``repr``, keyword construction, hashing and immutability where there
was any, pickling), held to a dataclass of the same fields as the oracle, and
their constructor errors and sharing rules."""

import dataclasses
import os
import pickle
import re
import subprocess
import sys

import pytest

from repro.agents import Action, SendAdapt, SendResult, StartInvocation, StatusUpdate
from repro.hocl import (
    AtomError,
    BindingView,
    FloatAtom,
    IntAtom,
    ListAtom,
    Multiset,
    ReductionReport,
    ScalarAtom,
    StringAtom,
    Subsolution,
    Symbol,
    TupleAtom,
)
from repro.agents.coordinator import TaskStatus, TimelineEvent
from repro.cluster import NetworkModel, Node
from repro.executors.base import DeploymentPlan
from repro.executors.mesos import MesosExecutor
from repro.executors.ssh import SSHExecutor
from repro.experiments.experiment import _CONFIG_FIELDS
from repro.hocl.engine import ReactionRecord
from repro.hoclflow.translator import TaskEncoding
from repro.runtime.costs import BrokerProfile
from repro.obs import EventRecord, Observability, SpanRecord
from repro.records import Frozen, FrozenError
from repro.runtime import CostModel, GinFlowConfig
from repro.runtime.enactment import AgentHost
from repro.runtime.results import RunReport, TaskOutcome
from repro.runtime.simulation import _SimAgent
from repro.scenarios.registry import Scenario
from repro.services import FailureModel, InvocationContext, InvocationResult
from repro.workflow import Task, WorkflowValidationError

ACTIONS = [
    SendResult("merge", IntAtom(3)),
    SendAdapt("T2p", 2),
    StartInvocation("svc", ("x", 1)),
    StatusUpdate("ready"),
]


class TestActions:
    def test_equal_by_class_and_fields(self):
        assert SendResult("b", 1) == SendResult(destination="b", value=1)
        assert SendResult("b", 1) != SendResult("b", 2)
        assert SendAdapt("b") == SendAdapt("b", 1) != SendAdapt("b", 2)
        assert StartInvocation("svc") == StartInvocation("svc", ())
        assert StatusUpdate("ready") != SendAdapt("ready")  # same first field, other class
        assert SendResult("b", 1) != ("b", 1) and Action() == Action()

    def test_hashable_like_the_tuple_of_their_fields(self):
        assert hash(SendResult("b", 1)) == hash(("b", 1))
        assert len({SendResult("b", 1), SendResult("b", 1), StatusUpdate("ready"), StatusUpdate("ready", "")}) == 2

    @pytest.mark.parametrize("action", ACTIONS, ids=lambda action: type(action).__name__)
    def test_assignment_raises(self, action):
        field = action.__slots__[0]
        with pytest.raises(FrozenError):
            setattr(action, field, "elsewhere")
        with pytest.raises(FrozenError):
            delattr(action, field)
        with pytest.raises(AttributeError):
            action.extra = 1
        assert not hasattr(action, "__dict__")

    def test_repr_unchanged(self):
        assert [repr(action) for action in ACTIONS] == [
            "SendResult(destination='merge', value=IntAtom(3))",
            "SendAdapt(destination='T2p', count=2)",
            "StartInvocation(service='svc', parameters=('x', 1))",
            "StatusUpdate(state='ready', detail='')",
        ]


class TestReports:
    def test_keyword_construction_and_fresh_defaults(self):
        report = ReductionReport(reactions=2, match_attempts=3, inert=False, rule_fires={"r": 2})
        assert (report.reactions, report.match_attempts, report.inert, report.rule_fires) == (2, 3, False, {"r": 2})
        assert (report.history, report.effects) == ([], [])
        first, second = ReductionReport(), ReductionReport()
        first.history.append(ReactionRecord("r", 0, 1, 1))
        first.rule_fires["r"] = 1
        first.effects.append(StatusUpdate("ready"))
        assert second == ReductionReport() != first

    def test_equality(self):
        left = ReductionReport(reactions=3, match_attempts=2, inert=False, rule_fires={"a": 2, "b": 1})
        left.history.append(ReactionRecord("a", 0, 2, 1))
        left.effects.append(SendResult("b", 1))
        assert left == ReductionReport(
            reactions=3, match_attempts=2, inert=False, history=[ReactionRecord("a", 0, 2, 1)],
            rule_fires={"a": 2, "b": 1}, effects=[SendResult("b", 1)],
        )  # fmt: skip
        assert left != ReductionReport(reactions=3) and ReductionReport() != object()

    def test_unhashable_and_shown_as_their_constructor_call(self):
        with pytest.raises(TypeError):
            hash(ReductionReport())
        with pytest.raises(TypeError):
            hash(ReactionRecord("r", 0, 1, 1))
        assert repr(ReactionRecord("r", 1, 2, 3)) == "ReactionRecord(rule='r', depth=1, consumed=2, produced=3)"
        assert repr(ReductionReport()).startswith("ReductionReport(reactions=0, match_attempts=0, inert=True, history=[],")


class TestBindingView:
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

    def test_symbol_interning_stops_at_the_limit(self):
        """In a fresh interpreter, whose table nothing else fills: past the
        limit a symbol is equal to its namesakes, not one of them."""
        script = (
            "import pickle\nfrom repro.hocl import Symbol\n"
            "early = Symbol('early')\n"
            "while len(Symbol._interned) < Symbol._INTERN_LIMIT:\n    Symbol(f'filler-{len(Symbol._interned)}')\n"
            "late = Symbol('late')\n"
            "assert late == Symbol('late') and late is not Symbol('late') and hash(late) == hash(Symbol('late'))\n"
            "assert early is Symbol('early') and 'late' not in Symbol._interned\n"
            "assert pickle.loads(pickle.dumps(early)) is early\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr


# ---------------------------------------------------- the run path's records
#: one of each record of the run path whose fields compare by value
RECORDS = [
    TaskStatus("a", "ready", True, False, 2, 1.5),
    TimelineEvent(1.0, "a", "failure", "attempt 1"),
    Node("n1", 4, 2, ["a"]),
    NetworkModel(0.001, 1000.0, 0.1),
    DeploymentPlan({"a": "n"}, {"a": 1.0}, 1.0, "ssh"),
    SSHExecutor(0.5, 0.2, 1.0),
    MesosExecutor(1.0, 0.5, 0.25),
    BrokerProfile("x", 0.1, 0.2, True),
    CostModel(agent_boot_time=0.1),
    FailureModel(0.5, 15.0),
    GinFlowConfig(nodes=5, broker="kafka", failures=FailureModel(0.5, 15.0)),
    InvocationContext("t", 1.0, {"k": 1}, 2),
    InvocationResult(IntAtom(3), 1.0),
    TaskOutcome("t", "completed", "x", False, "n1", 0.0, 1.0, 1, 0),
    RunReport(tasks={"t": TaskOutcome("t", "completed")}, exit_tasks=["t"], rule_fires={"gw_call": 1},
              timeline=[TimelineEvent(1.0, "t", "ready")]),
    SpanRecord("s", "t", 0.0, 1.0, None, {"k": 1}),
    EventRecord("e", "t", 1.0, 2.0),
    Observability(None, None),
    Task("t", "s", ["in"], 1.0, {"k": 1}),
    TaskEncoding("t", "s", [], 1.0, {}, ["a"], ["b"], is_replacement=True, adaptation="swap"),
    ReductionReport(2, 3, False, [], {"r": 2}, ["effect"]),
    Scenario("s", len, "d", "a chain", {"task": (0.1, 0.5)}, {}, ("synthetic",)),
]


def _twin(record):
    """The dataclass of ``record``'s fields (frozen where it is), holding the same values."""
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__qualname__, cls.__match_args__, frozen=isinstance(record, Frozen))
    return twin(*record._fields())


def _hash_of(value):
    try:
        return hash(value)
    except TypeError as error:  # a field holding a dict or a list
        return type(error)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
class TestRunPathRecords:
    def test_equal_to_an_equal_one_and_not_to_another_class(self, record):
        again = type(record)(*record._fields())
        assert again == record and again is not record and not record != again
        assert record != _twin(record) and record != record._fields()

    def test_shown_hashed_and_frozen_as_the_dataclass_was(self, record):
        twin = _twin(record)
        assert repr(record) == repr(twin)
        assert (type(record).__hash__ is None) is (type(twin).__hash__ is None)
        if type(record).__hash__ is not None:
            assert _hash_of(record) == _hash_of(twin)
        field = record.__match_args__[0]
        if isinstance(record, Frozen):
            with pytest.raises(FrozenError, match=f"cannot assign to or delete field '{field}'"):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        else:
            setattr(record, field, getattr(record, field))
        assert not hasattr(record, "__dict__")

    def test_pickled_and_back(self, record):
        assert pickle.loads(pickle.dumps(record)) == record


class TestRunPathRecordContracts:
    def test_fields_follow_the_class_chain_and_skip_private_slots(self):
        assert _SimAgent.__match_args__ == (*AgentHost.__match_args__, "idle_at")
        assert "_local_rules" not in TaskEncoding.__match_args__ and "_local_rules" in TaskEncoding.__slots__

    def test_experiments_read_the_configuration_fields(self):
        assert _CONFIG_FIELDS == set(GinFlowConfig.__match_args__)
        assert {"mode", "broker", "nodes", "costs", "seed", "obs"} <= _CONFIG_FIELDS

    def test_defaults_are_fresh_per_record(self):
        first, second = RunReport(), RunReport()
        first.rule_fires["k"] = 1
        first.tasks["t"] = TaskOutcome("t", "done")
        assert second.rule_fires == {} and second.tasks == {} and Task("a", "s").inputs is not Task("b", "s").inputs
        assert GinFlowConfig().costs == CostModel() and Observability().metrics is not Observability().metrics

    def test_with_overrides_validates_and_rejects_unknown_fields(self):
        config = GinFlowConfig()
        assert config.with_overrides(nodes=3) == GinFlowConfig(nodes=3) != config
        with pytest.raises(ValueError, match="unknown configuration field"):
            config.with_overrides(nodez=3)
        with pytest.raises(ValueError, match="nodes must be >= 1"):
            config.with_overrides(nodes=0)
        assert CostModel().with_overrides(handling_base=1.0).handling_base == 1.0
        with pytest.raises(TypeError, match="handling_bass"):
            CostModel().with_overrides(handling_bass=1.0)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: FailureModel(probability=1.0), ValueError, "failure probability must be in [0, 1)"),
            (lambda: FailureModel(delay=-1), ValueError, "failure-model delays must be >= 0"),
            (lambda: GinFlowConfig(nodes=0), ValueError, "nodes must be >= 1"),
            (lambda: Task("", "s"), WorkflowValidationError, "task name must be a non-empty string, got ''"),
            (lambda: Task("a", ""), WorkflowValidationError, "task 'a': service must be a non-empty string, got ''"),
            (lambda: Task("a", "s", duration=-1), WorkflowValidationError, "task 'a': duration must be >= 0"),
        ],
    )
    def test_constructor_errors_unchanged(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("cls", [TaskStatus, TimelineEvent, BrokerProfile, Task, InvocationResult])
    def test_a_missing_or_unknown_argument_is_a_type_error(self, cls):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError, match="bogus"):
            cls(*cls.__match_args__, bogus=1)
