"""Tests for the per-run floor: what a run pays besides the enactment itself.

* one compiled local rule set per run — every agent holds the *same* rule
  objects, an effect's actions come back through the report of the reduction
  that fired it (never through anything shared), and the decentralised path
  builds no centralised per-task rule;
* a stated memory budget per stage (GC-tracked objects per encoded task and
  per agent), a matcher that leaves the cyclic collector nothing to find, and
  a handful of compiled left-hand sides per run whatever its size;
* the cyclic collector is given back exactly as it was found, on every way
  out of ``GinFlow.run``, and is a measured layer when observability is on;
* a process that exits without sweeping the finished run (``gc.freeze`` at
  exit, registered once by ``repro.cli.main``), invisible to in-process callers;
* no numpy and no networkx on any run path, and a start-up without the
  runtime drivers (asyncio with them), the textual parser, pickle, the trace
  exporter, the summariser, the analyzer, the experiments and the figure
  drivers; a listing command's ``repro`` modules pinned at their count;
* a Python-call budget per stimulus through each clock's agent driver;
* one validation per workflow object per run, ``topological_order`` pinned
  against networkx (a test-only oracle);
* a recovered agent keeps its tracer, and the core it replaces is taken
  apart.
"""

import atexit
import gc
import json
import logging
import os
import re
import subprocess
import sys
import threading

import pytest

import repro
import repro.hoclflow.translator as translator
from repro import GinFlow, adaptive_diamond_workflow, diamond_workflow, workflow_to_json
from repro.cli import main
from repro.agents import AgentCore, SendResult, StartInvocation, StatusUpdate
from repro.agents.local_rules import GW_CALL, GW_PASS, GW_SETUP, LOCAL_EXTERNALS
from repro.executors.centralized import CentralizedExecutor
from repro.hocl import ReductionEngine
from repro.hoclflow import encode_workflow
from repro.obs import MetricsRegistry, Observability, RecordingTracer
from repro.obs.export import read_trace
from repro.obs.summarize import format_summary, summarize
from repro.runtime import GinFlowConfig, run_asyncio, run_simulation
from repro.runtime.enactment import EnactmentEngine, ReportAssembler
from repro.runtime.frozen import FrozenSetUp
from repro.scenarios import available_scenarios, build_scenario
from repro.services import FailureModel, Service, ServiceRegistry
from repro.simkernel import Simulator
from repro.workflow import Workflow, workflow_from_json

AGENT_MODES = ("simulated", "asyncio")
MODES = (*AGENT_MODES, "centralized")


# ------------------------------------------------------------- shared rules
class TestSharedRules:
    def test_all_agents_hold_the_same_rule_objects(self):
        workflow = adaptive_diamond_workflow(3, 3)
        workflow.adaptations[0].trigger_on = None  # every replaced task triggers the plan
        workflow.validate()
        encoding = encode_workflow(workflow)
        cores = [AgentCore(task) for task in encoding.tasks.values()]
        held: dict[str, list] = {}
        for core in cores:
            for rule in core.solution.rules():
                held.setdefault(rule.name, []).append(rule)
        # one local trigger per plan, held by each of its trigger tasks: the
        # plan's rule bound in each, one body (reaction, products, delta, effect)
        (trigger_name,) = [name for name in held if name.startswith("trigger_adapt:")]
        triggers = held.pop(trigger_name)
        assert len(triggers) == len(encoding.plans[0].trigger_tasks) > 1
        for part in ("reaction", "products", "delta", "effect"):
            assert len({id(getattr(rule, part)) for rule in triggers}) == 1, part
        assert all(rule.given == triggers[0].given for rule in triggers)
        assert all(rule is rules[0] for rules in held.values() for rule in rules)
        assert held["gw_setup"][0] is GW_SETUP
        assert held["gw_call"][0] is GW_CALL and len(held["gw_call"]) == len(cores)
        assert held["gw_pass"][0] is GW_PASS
        assert all(core.engine.externals is LOCAL_EXTERNALS for core in cores)

    def test_recovered_agent_rebinds_to_the_same_rules(self):
        encoding = encode_workflow(diamond_workflow(2, 2))
        first, second = (AgentCore(encoding.tasks["split"]) for _ in range(2))
        assert all(a is b for a, b in zip(first.solution.rules(), second.solution.rules()))

    def test_decentralised_path_builds_no_centralised_gw_call(self, monkeypatch):
        built = []
        original = translator.make_gw_call

        def counting(task_name):
            built.append(task_name)
            return original(task_name)

        monkeypatch.setattr(translator, "make_gw_call", counting)
        workflow = adaptive_diamond_workflow(2, 2, duration=0.01)
        for mode in AGENT_MODES:
            assert GinFlow().run(workflow, mode=mode, nodes=3).succeeded
        assert built == []
        encoding = encode_workflow(workflow)
        assert built == []
        encoding.to_multiset()  # a centralised solution is asked for: now they exist
        assert sorted(built) == sorted(encoding.tasks)
        encoding.to_multiset()
        assert len(built) == len(encoding.tasks)  # and are built once


def assert_own_actions(core, actions):
    """Every action ``core`` got back was requested by ``core``'s own rules."""
    encoding = core.encoding
    assert isinstance(actions[-1], StatusUpdate)
    for action in actions[:-1]:
        if isinstance(action, StartInvocation):
            assert action.service == encoding.service
        else:
            assert isinstance(action, SendResult)
            assert action.destination in encoding.destinations and action.value == encoding.name


def drive(core, actions_of):
    """One agent's whole life, every stimulus checked against its own encoding."""
    actions = core.boot()
    for source in core.encoding.sources:
        assert_own_actions(core, actions)
        actions = core.receive_result(source, f"from-{source}")
    assert_own_actions(core, actions)
    assert any(isinstance(action, StartInvocation) for action in actions)
    actions = core.invocation_succeeded(core.encoding.name)
    assert_own_actions(core, actions)
    assert len(actions) == len(core.encoding.destinations) + 1
    actions_of[core.name] = actions


def wide_workflow(width):
    """``width`` independent three-task chains, each task on its own service."""
    workflow = Workflow("wide")
    for column in range(width):
        names = [f"t{column}_{row}" for row in range(3)]
        for name in names:
            workflow.add_task(name, service=f"svc-{name}", inputs=["x"] if name.endswith("_0") else [])
        workflow.chain(*names)
    return workflow


class TestActionsStayWithTheirAgent:
    def test_concurrent_agents_never_see_each_others_actions(self):
        """Stress: more threads than cores, each driving its own agents, all
        sharing the rule objects; a lost or foreign action breaks an invariant."""
        encoding = encode_workflow(wide_workflow(40))
        cores = [AgentCore(task) for task in encoding.tasks.values()]
        actions_of: dict[str, list] = {}
        errors: list[BaseException] = []

        def worker(mine):
            try:
                for core in mine:
                    drive(core, actions_of)
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(cores[index::8],)) for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:1]
        assert sorted(actions_of) == sorted(encoding.tasks)

    @pytest.mark.parametrize("global_sink", [False, True])
    def test_a_global_sink_mutant_dies(self, monkeypatch, global_sink):
        """The check above has teeth: make the sink global (the pre-report
        design: one pending list, drained after the reduction) and two agents
        reducing at the same time steal each other's actions.  The barrier
        makes the interleaving certain instead of likely."""
        barrier = threading.Barrier(2, timeout=30.0)
        pending: list = []
        lock = threading.Lock()
        original = ReductionEngine.reduce

        def reduce(self, solution):
            report = original(self, solution)
            if global_sink:
                pending.extend(report.effects)
            barrier.wait()  # both agents have reduced, neither has collected
            if global_sink:
                with lock:
                    report.effects = list(pending)
                    pending.clear()
            return report

        monkeypatch.setattr(ReductionEngine, "reduce", reduce)
        encoding = encode_workflow(wide_workflow(2))
        cores = [AgentCore(encoding.tasks[name]) for name in ("t0_0", "t1_0")]
        failures: list[BaseException] = []

        def worker(core):
            try:
                assert_own_actions(core, core.boot())
            except AssertionError as exc:
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(core,)) for core in cores]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert bool(failures) is global_sink


# ------------------------------------------------------------------- budget
#: GC-tracked objects per agent core: 73 — its five fields, their index
#: entries, one engine — 94 before the lazily allocated lists, 187 before PR 16
AGENT_BUDGET = 73
#: Python-level calls per chain agent built and per steady-state stimulus;
#: per reaction inside `ReductionEngine.reduce` on the centralised
#: montage:size=300,seed=1; per stimulus through each clock's agent driver on a
#: 500-deep chain, AgentCore's own left out.  Each is counted in a fresh
#: interpreter (what the process ran before does not move it) and pinned per
#: CPython of the CI matrix at the measured value: 44.002, 38.999, 32.408,
#: 19.008 and 14.678 on 3.10 and 3.11; 43.0, 37.664, 31.382, 19.008 and 14.678
#: on 3.12, which inlines comprehensions.  Another version is held to 3.11's.
#: Since the real clock queues a synchronous completion in its own FIFO, not
#: with ``loop.call_soon``, 3.11 measures 14.375 on the asyncio driver (3.10
#: and 3.12 keep the pin they were measured at until they are measured again).
_CALL_BUDGETS = {
    (3, 10): (44.01, 39.0, 32.41, 19.01, 14.68),
    (3, 11): (44.01, 39.0, 32.41, 19.01, 14.38),
    (3, 12): (43.0, 37.67, 31.39, 19.01, 14.68),
}
CALLS_PER_AGENT, CALLS_PER_STIMULUS, CALLS_PER_REACTION, *_driver = _CALL_BUDGETS.get(sys.version_info[:2], _CALL_BUDGETS[3, 11])
DRIVER_CALLS_PER_STIMULUS = dict(zip(("simulated", "asyncio"), _driver))
#: event-loop turns per stimulus of a 500-deep chain on the real clock, whose
#: FIFO is drained 64 items a turn: 0.672 when each stimulus was its own
#: ``loop.call_soon`` (two turns per chain link)
LOOP_TURNS_PER_STIMULUS = 0.1


def tracked_objects_per_item(build, items):
    """GC-tracked objects ``build()`` leaves behind, per item."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = build()
        after = len(gc.get_objects())
    finally:
        gc.enable()
    del kept
    return (after - before) / items


class TestObjectBudget:
    def test_budget_per_task_and_per_agent(self):
        workflow = build_scenario("longchain:size=500")
        workflow.validate()
        encodings = []
        per_task = tracked_objects_per_item(lambda: encodings.append(encode_workflow(workflow)), 500)
        tasks = list(encodings[0].tasks.values())
        per_agent = tracked_objects_per_item(lambda: [AgentCore(task) for task in tasks], 500)
        assert per_task <= 12, per_task
        assert round(per_agent) <= AGENT_BUDGET, per_agent

    @pytest.mark.parametrize("mode", AGENT_MODES)
    def test_set_up_is_never_walked(self, mode, monkeypatch):
        """No collection starts while the agents are built: the collector is
        held off from the first hosted agent to the last, which freezes the
        set-up at once.  What it can walk when the first agent boots (frozen
        objects are not listed) is then no more than where set-up started,
        however many agents were built."""
        walkable, started, booted = [], [], []
        original, boot = AgentCore.__init__, EnactmentEngine.boot

        def init(self, *args, **kwargs):  # the heap is walked for the first agent only: the one read
            walkable.append((None if walkable else len(gc.get_objects()), gc.isenabled(), len(started)))
            original(self, *args, **kwargs)

        def booting(self, host):
            booted.append(booted or len(gc.get_objects()))
            return boot(self, host)

        def watch(phase, info):
            started.append(phase == "start")

        monkeypatch.setattr(AgentCore, "__init__", init)
        monkeypatch.setattr(EnactmentEngine, "boot", booting)
        gc.callbacks.append(watch)
        try:
            assert GinFlow().run(build_scenario("longchain:size=1000"), mode=mode, timeout=120.0).succeeded
        finally:
            gc.callbacks.remove(watch)
        assert len(walkable) == 1000 and walkable[0][1]
        assert all(not enabled and collections == walkable[1][2] for _, enabled, collections in walkable[1:])
        assert booted[0] <= walkable[0][0], (booted[0], walkable[0][0])
        assert gc.get_freeze_count() == 0 and gc.isenabled()


def python_calls(run):
    """``run()``, the Python-level calls it made (``sys.setprofile`` ``"call"``
    events) and how many of those ran dataclass-generated code."""
    calls = [0, 0]

    def count(frame, event, _arg):
        if event == "call":
            calls[0] += 1
            calls[1] += frame.f_code.co_filename == "<string>"

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, *calls


def agent_and_stimulus_calls():
    """Python calls per chain agent built and per steady-state stimulus, the
    stimuli handled, and the calls into dataclass-generated code."""
    encoding = encode_workflow(build_scenario("longchain:size=500"))
    tasks = list(encoding.tasks.values())
    drive_all(encoding)  # every rule body written, every name interned
    _, built, _ = python_calls(lambda: [AgentCore(task) for task in tasks])
    (_, stimuli), driven, generated = python_calls(lambda: drive_all(encoding))
    return built / len(tasks), (driven - built) / stimuli, stimuli, generated


def centralised_reaction_calls():
    """The reactions of the centralised montage:size=300,seed=1 and the Python
    calls per reaction inside ``ReductionEngine.reduce``."""
    reduce, counted = ReductionEngine.reduce, []

    def counting(engine, solution):
        report, calls, _ = python_calls(lambda: reduce(engine, solution))
        counted.append((report.reactions, calls))
        return report

    CentralizedExecutor().execute(build_scenario("montage:size=300,seed=1"))  # every rule body written
    ReductionEngine.reduce = counting
    try:
        CentralizedExecutor().execute(build_scenario("montage:size=300,seed=1"))
    finally:
        ReductionEngine.reduce = reduce
    reactions, calls = map(sum, zip(*counted))
    return reactions, calls / reactions


def driver_calls_per_stimulus(mode):
    """Whether a 500-deep chain succeeded on ``mode``, its stimuli and the driver's calls per stimulus."""
    run = {"simulated": run_simulation, "asyncio": run_asyncio}[mode]
    run(build_scenario("longchain:size=500"))  # every rule body written, every name interned
    report, calls, stimuli = driver_calls(lambda: run(build_scenario("longchain:size=500")))
    return report.succeeded, stimuli, calls / stimuli


def loop_turns_per_stimulus():
    """Whether a 500-deep chain succeeded on the real clock, its stimuli and the
    event-loop turns (``BaseEventLoop._run_once`` entries) per stimulus, from
    ``asyncio.run`` in to ``asyncio.run`` out."""
    from asyncio.base_events import BaseEventLoop

    turn = BaseEventLoop._run_once.__code__
    stimuli = {EnactmentEngine.boot.__code__, EnactmentEngine.deliver.__code__, EnactmentEngine.complete_invocation.__code__}
    counts = [0, 0]

    def count(frame, event, _arg):
        if event == "call":
            counts[0] += frame.f_code is turn
            counts[1] += frame.f_code in stimuli

    sys.setprofile(count)
    try:
        report = run_asyncio(build_scenario("longchain:size=500"))
    finally:
        sys.setprofile(None)
    return report.succeeded, counts[1], counts[0] / counts[1]


def measured_alone(function, *args, module="test_run_floor"):
    """What ``function(*args)`` of ``module`` (this one by default) returns in a
    fresh interpreter: a call count that does not depend on what the suite ran before."""
    script = f"import json, {module}\nprint(json.dumps({module}.{function}(*{args!r})))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": "0"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestCallBudget:
    """Host-independent, and counted in a fresh interpreter each."""

    def test_calls_per_agent_and_per_stimulus(self):
        """What building an agent and handling a stimulus cost in Python
        calls, the budget of the layer that reads and updates a solution —
        and none of them in a dataclass's generated methods."""
        per_agent, per_stimulus, stimuli, generated = measured_alone("agent_and_stimulus_calls")
        assert stimuli == 1499 and generated == 0
        assert per_agent <= CALLS_PER_AGENT, per_agent
        assert per_stimulus <= CALLS_PER_STIMULUS, per_stimulus

    def test_calls_per_reaction_of_the_centralised_engine(self):
        """What a reaction costs the centralised engine — one level of 300
        task sub-solutions, every result moved across every edge by
        `gw_pass` — in Python calls, the services it invokes included."""
        reactions, per_reaction = measured_alone("centralised_reaction_calls")
        assert reactions == 1190
        assert per_reaction <= CALLS_PER_REACTION, per_reaction

    @pytest.mark.parametrize("mode", AGENT_MODES)
    def test_driver_calls_per_stimulus(self, mode):
        """What the one agent driver costs a stimulus on each clock, from the
        first boot to the report — the kernel or loop calls it makes, the
        engine, the broker — so no per-stimulus indirection joins the
        chain-aio path unseen."""
        succeeded, stimuli, per_stimulus = measured_alone("driver_calls_per_stimulus", mode)
        assert succeeded and stimuli == 1499
        assert per_stimulus <= DRIVER_CALLS_PER_STIMULUS[mode], per_stimulus

    def test_loop_turns_per_stimulus_on_the_real_clock(self):
        """A turn of the event loop — a poll, the timer bookkeeping, a Handle —
        is paid per slice of the driver's FIFO, not per boot, message or
        completion, which the call count cannot see (it is loop code)."""
        succeeded, stimuli, per_stimulus = measured_alone("loop_turns_per_stimulus")
        assert succeeded and stimuli == 1499
        assert per_stimulus <= LOOP_TURNS_PER_STIMULUS, per_stimulus


def driver_calls(run):
    """``run()``, and from its first boot to its report the Python calls of
    ``repro`` code and the calls it made into the standard library, with
    everything below an ``AgentCore`` method left out; and the stimuli run."""
    package = os.path.dirname(repro.__file__)
    core = {getattr(value, "fget", value) for value in vars(AgentCore).values()}
    core = {function.__code__ for function in core if hasattr(function, "__code__")}
    first, last = EnactmentEngine.boot.__code__, ReportAssembler.assemble.__code__
    stimuli = {first, EnactmentEngine.deliver.__code__, EnactmentEngine.complete_invocation.__code__}
    state = {"counting": False, "done": False, "depth": 0, "core_at": None, "calls": 0, "stimuli": 0}

    def count(frame, event, _arg):
        if event == "return":
            if state["core_at"] == state["depth"]:
                state["core_at"] = None
            state["depth"] -= 1
        elif event == "call":
            state["depth"] += 1
            code = frame.f_code
            if state["done"] or not (state["counting"] or code is first):
                return
            state["counting"] = True
            if code is last:
                state["done"] = True
            elif state["core_at"] is None:
                state["stimuli"] += code in stimuli
                if code in core:
                    state["core_at"] = state["depth"]
                elif code.co_filename.startswith(package) or frame.f_back.f_code.co_filename.startswith(package):
                    state["calls"] += 1

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, state["calls"], state["stimuli"]


def drive_all(encoding):
    """Every agent of ``encoding`` through its whole life, without a runtime:
    each action answered at once.  Returns the cores and the stimuli handled."""
    cores = {name: AgentCore(task) for name, task in encoding.tasks.items()}
    pending = [(core, action) for core in cores.values() for action in core.boot()]
    stimuli = len(cores)
    while pending:
        core, action = pending.pop()
        if isinstance(action, StartInvocation):
            answer, actions = core, core.invocation_succeeded(core.name)
        elif isinstance(action, SendResult):
            answer = cores[action.destination]
            actions = answer.receive_result(core.name, action.value)
        else:
            continue
        stimuli += 1
        pending.extend((answer, action) for action in actions)
    return cores, stimuli


def rule_bodies(solutions):
    """The distinct reactions (one per rule body) of every rule held in ``solutions``, nested ones included."""
    reactions, pending = {}, list(solutions)
    while pending:
        solution = pending.pop()
        pending.extend(solution.nested_solutions())
        reactions.update((id(rule.reaction), rule.reaction) for rule in solution.rules())
    return reactions


class TestMatcherBudget:
    def test_a_run_leaves_the_cyclic_collector_nothing_to_find(self):
        """Clock-free: the compiled search allocates no generator and no
        self-referencing closure, so reference counts free what a stimulus
        allocates (72,032 unreachable objects with the interpreted matcher)."""
        encoding = encode_workflow(build_scenario("montage:size=200,seed=1"))
        gc.collect()
        gc.disable()
        try:
            cores, stimuli = drive_all(encoding)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert stimuli == 790
        assert all(core.state == "completed" and not core.pending_destinations() for core in cores.values())
        assert unreachable <= 50, unreachable

    @pytest.mark.parametrize("size", [50, 400])
    def test_rule_bodies_per_run_do_not_grow_with_the_run(self, size):
        encoding = encode_workflow(build_scenario(f"montage:size={size},seed=1"))
        local = rule_bodies(AgentCore(task).solution for task in encoding.tasks.values())
        central = rule_bodies([encoding.to_multiset()])
        # gw_setup (shared with the agents), one gw_call for all tasks, gw_pass
        assert len(central) == 3 and len(local) == 3 and len({**local, **central}) == 5 <= 8


# ----------------------------------------------------------------------- gc
RAISES_INSIDE = {
    "simulated": (Simulator, "run"),
    "asyncio": (EnactmentEngine, "boot"),  # a stimulus that raises ends the run: no wait for the timeout
    "centralized": (CentralizedExecutor, "execute"),
}


class TestCollectorIsGivenBack:
    @pytest.mark.parametrize("mode", MODES)
    def test_gc_state_restored_after_return(self, mode):
        before = (gc.isenabled(), gc.get_freeze_count(), list(gc.callbacks))
        report = GinFlow().run(diamond_workflow(2, 2, duration=0.01), mode=mode, nodes=3)
        assert report.succeeded
        assert (gc.isenabled(), gc.get_freeze_count(), list(gc.callbacks)) == before

    @pytest.mark.parametrize("mode", MODES)
    def test_gc_state_restored_after_raise(self, mode, monkeypatch):
        owner, attribute = RAISES_INSIDE[mode]

        def explode(*_args, **_kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(owner, attribute, explode)
        obs = Observability(tracer=RecordingTracer())
        before = (gc.isenabled(), gc.get_freeze_count(), list(gc.callbacks))
        with pytest.raises(RuntimeError, match="injected"):
            GinFlow().run(diamond_workflow(2, 2, duration=0.01), mode=mode, nodes=3, obs=obs)
        assert (gc.isenabled(), gc.get_freeze_count(), list(gc.callbacks)) == before

    @pytest.mark.parametrize("mode", AGENT_MODES)
    def test_gc_state_restored_after_a_set_up_that_raises(self, mode, monkeypatch):
        """Inside the set-up window — the collector held off since the first
        hosted agent, no collection started, nothing frozen yet — and before
        any stimulus."""
        made, started = [], []
        original = AgentCore.__init__

        def init(self, *args, **kwargs):
            made.append((gc.isenabled(), gc.get_freeze_count(), len(started)))
            if len(made) == 300:
                raise RuntimeError("injected into set-up")
            original(self, *args, **kwargs)

        monkeypatch.setattr(AgentCore, "__init__", init)
        obs = Observability(tracer=RecordingTracer())
        before = (gc.isenabled(), gc.get_freeze_count(), list(gc.callbacks))
        gc.callbacks.append(lambda phase, info: started.append(phase))
        try:
            with pytest.raises(RuntimeError, match="injected into set-up"):
                GinFlow().run(build_scenario("longchain:size=400"), mode=mode, obs=obs)
        finally:
            gc.callbacks.pop()
        assert made[0][:2] == (True, 0) and set(made[1:]) == {(False, 0, made[1][2])}
        assert (gc.isenabled(), gc.get_freeze_count(), list(gc.callbacks)) == before

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("raises", [False, True])
    def test_a_collector_the_caller_disabled_stays_disabled(self, mode, raises, monkeypatch):
        def explode(*_args, **_kwargs):
            raise RuntimeError("injected")

        if raises:
            monkeypatch.setattr(*RAISES_INSIDE[mode], explode)
        gc.disable()
        try:
            if raises:
                with pytest.raises(RuntimeError, match="injected"):
                    GinFlow().run(build_scenario("longchain:size=200"), mode=mode)
            else:
                assert GinFlow().run(build_scenario("longchain:size=200"), mode=mode).succeeded
            assert not gc.isenabled() and gc.get_freeze_count() == 0
        finally:
            gc.enable()

    def test_set_up_is_frozen_during_enactment_only(self, monkeypatch):
        seen = []
        original = Simulator.run

        def run(self, *args, **kwargs):
            seen.append(gc.get_freeze_count())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", run)
        assert gc.get_freeze_count() == 0
        GinFlow().run(diamond_workflow(2, 2), nodes=3)
        assert seen[0] > 0 and gc.get_freeze_count() == 0

    def test_a_heap_frozen_by_the_caller_is_left_alone(self):
        gc.freeze()
        try:
            GinFlow().run(diamond_workflow(2, 2), nodes=3)
            assert gc.get_freeze_count() > 0  # the run did not unfreeze what it did not freeze
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize("mode", AGENT_MODES)
    def test_a_heap_frozen_by_the_caller_is_not_added_to(self, mode):
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            # more hosts than a freeze stride once was, and still nothing of the run's joins the caller's frozen set
            assert GinFlow().run(build_scenario(f"longchain:size=148"), mode=mode).succeeded
            assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()


class TestCentralisedSetUpIsFrozen:
    """The global solution of a centralised run — 1000 task tuples, ~150k
    GC-tracked objects — is frozen as it is built, like every agent runtime's
    set-up (one shared helper): no full collection walks it, and it is given
    back however the run ends."""

    def test_no_full_collection_during_execute(self, monkeypatch):
        workflow = build_scenario("montage:size=1000,seed=1")
        monkeypatch.setattr(FrozenSetUp, "wiped", 0)  # no collection due from earlier runs
        gc.collect()
        full = []

        def watch(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        gc.callbacks.append(watch)
        try:
            outcome = CentralizedExecutor().execute(workflow)
        finally:
            gc.callbacks.remove(watch)
        assert len(outcome.results) == 1000 and not outcome.errors
        assert full == [] and gc.get_freeze_count() == 0

    def test_the_global_level_is_frozen_with_the_task_tuples(self, monkeypatch):
        """The global solution itself — its entries, their list and its index
        buckets — is built inside the set-up window, not after its freeze."""
        reduce, tracked = CentralizedExecutor._reduce, []

        def reducing(self, encoding, solution):
            collectable = {id(obj) for obj in gc.get_objects()}
            level = [solution, solution._entries, solution._index, *solution._entries, *solution._index.values()]
            tracked.append([obj for obj in level if id(obj) in collectable])
            return reduce(self, encoding, solution)

        monkeypatch.setattr(CentralizedExecutor, "_reduce", reducing)
        outcome = CentralizedExecutor().execute(build_scenario("montage:size=60,seed=1"))
        assert not outcome.errors and tracked == [[]]

    def test_given_back_when_a_service_raises(self):
        frozen = []

        class Raising(Service):
            def invoke(self, parameters, context):
                frozen.append(gc.get_freeze_count())
                raise RuntimeError("service down")

        executor = CentralizedExecutor(registry=ServiceRegistry(default_factory=Raising))
        outcome = executor.execute(build_scenario("montage:size=256,seed=1"))
        assert outcome.errors and not outcome.results  # the entry tasks failed, nothing ran after them
        assert frozen[0] > 0 and gc.get_freeze_count() == 0

    def test_given_back_when_the_reduction_raises(self, monkeypatch):
        frozen = []

        def reduce(self, solution):
            frozen.append(gc.get_freeze_count())
            raise RuntimeError("injected into the reduction")

        monkeypatch.setattr(ReductionEngine, "reduce", reduce)
        with pytest.raises(RuntimeError, match="injected"):
            CentralizedExecutor().execute(build_scenario("montage:size=256,seed=1"))
        assert frozen[0] > 0 and gc.get_freeze_count() == 0


class TestRunAfterRunInOneProcess:
    @pytest.mark.parametrize("mode", ["simulated", "asyncio"])
    def test_what_runs_leave_behind_is_collected(self, mode):
        """``gc.freeze()`` zeroes the collector's counts: left at that, a sweep
        never reaches a full collection and keeps every finished run's agents
        (cyclic garbage) — 5,000 objects a run here, 1 MiB, for good."""
        workflow = diamond_workflow(8, 8, duration=0.0)
        left = []
        for _ in range(40):
            assert GinFlow().run(workflow, mode=mode, nodes=10).succeeded
            left.append(len(gc.get_objects()))
        per_run = len(workflow.tasks) * 60  # what one run's agents amount to, at the least
        assert max(left[20:]) - max(left[:20]) < 5 * per_run, (left[0], max(left[:20]), max(left[20:]))


#: run the nine families on two runtimes in the order ``argv[1]`` names, and print each cell's outcome
_EACH_CELL = """
import hashlib, json, sys
from repro import GinFlow
from repro.scenarios import available_scenarios, build_scenario
names = list(available_scenarios())
cells = {}
for name in names if sys.argv[1] == "forward" else names[::-1]:
    for mode in ("simulated", "centralized"):
        report = GinFlow().run(build_scenario(f"{name}:size=20"), mode=mode)
        cells[f"{name}/{mode}"] = {
            "summary": report.summary(),
            "tasks": [repr(task) for task in report.tasks.values()],
            "timeline": hashlib.sha1(repr(report.timeline).encode()).hexdigest(),
        }
print(json.dumps(cells))
"""


class TestARunIsAValue:
    def test_the_same_wherever_it_runs_in_a_process(self):
        """Each cell runs early in one interpreter and late in the other: what a run
        reports depends on its inputs only, not on the runs before it in the process."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        children = [
            subprocess.Popen([sys.executable, "-c", _EACH_CELL, order], stdout=subprocess.PIPE, text=True, env=env)
            for order in ("forward", "reverse")
        ]
        forward, reverse = (json.loads(child.communicate(timeout=120)[0]) for child in children)
        assert [child.returncode for child in children] == [0, 0]
        assert len(forward) == 2 * len(available_scenarios()) and forward.keys() == reverse.keys() and list(forward) != list(reverse)
        for cell, outcome in forward.items():
            assert outcome == reverse[cell], cell
            assert outcome["summary"]["succeeded"], cell


class TestCollectorIsMeasured:
    def test_pauses_feed_metrics_and_trace(self):
        obs = Observability(tracer=RecordingTracer(), metrics=MetricsRegistry())
        report = GinFlow().run(build_scenario("montage:size=60"), nodes=5, obs=obs)
        assert report.succeeded
        spans = [span for span in obs.tracer.spans if span.name == "gc.collect"]
        assert spans and all(span.track == "gc" and span.end >= span.start for span in spans)
        counters = obs.metrics.snapshot()["counters"]
        collections = sum(counters[f"gc.collections.gen{generation}"] for generation in range(3))
        assert collections == len(spans)
        assert counters["gc.pause_s"] == pytest.approx(sum(span.end - span.start for span in spans))
        assert f"gc: {len(spans)} collections, " in format_summary(summarize(obs.tracer.records()))

    def test_tracing_off_installs_nothing(self, monkeypatch):
        installed = []
        original = Simulator.run

        def run(self, *args, **kwargs):
            installed.append(list(gc.callbacks))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", run)
        before = list(gc.callbacks)
        GinFlow().run(diamond_workflow(2, 2), nodes=3)
        assert installed == [before]


# --------------------------------------------------------------------- exit
def fresh_interpreter(script, tmp_path):
    """``script`` to the interpreter's own exit in a new process with this one's import path."""
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={"PYTHONPATH": ":".join(sys.path), "PATH": ""},
    )


def ginflow(argv, tmp_path, prelude=""):
    """``ginflow argv`` as the console script runs it: ``sys.exit(main(argv))``."""
    return fresh_interpreter(f"{prelude}\nimport sys\nfrom repro.cli import main\nsys.exit(main({argv!r}))\n", tmp_path)


class TestExitDoesNotSweep:
    RUN = ["run", "--scenario", "montage:size=30,seed=1", "--nodes", "5"]

    def test_main_returns_to_an_unfrozen_heap_and_registers_once(self, capsys):
        assert main(self.RUN) == 0
        registered = atexit._ncallbacks()
        assert gc.get_freeze_count() == 0
        assert main(self.RUN) == 0 and main(["backends"]) == 0
        assert atexit._ncallbacks() == registered and gc.get_freeze_count() == 0
        capsys.readouterr()

    def test_the_finished_run_is_frozen_when_the_process_exits(self, tmp_path):
        # handlers run last-registered first: this one, registered before main(), sees what main()'s left
        prelude = "import atexit, gc\natexit.register(lambda: print('FROZEN AT EXIT', gc.get_freeze_count()))"
        done = ginflow([*self.RUN, "--json"], tmp_path, prelude)
        assert done.returncode == 0, done.stderr
        frozen = int(re.search(r"FROZEN AT EXIT (\d+)", done.stdout).group(1))
        assert frozen > 30 * 60  # the 30 agents' worth and the interpreter's own

    def test_set_up_still_freezes_after_main_ran_in_the_process(self, monkeypatch, capsys):
        assert main(self.RUN) == 0
        capsys.readouterr()
        seen = []
        original = Simulator.run

        def run(self, *args, **kwargs):
            seen.append(gc.get_freeze_count())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", run)
        GinFlow().run(diamond_workflow(2, 2), nodes=3)
        assert seen[0] > 0 and gc.get_freeze_count() == 0

    @pytest.mark.parametrize("trace_format", ["jsonl", "chrome"])
    def test_a_traced_run_leaves_complete_artifacts(self, trace_format, tmp_path):
        trace = tmp_path / "run.trace"
        done = ginflow([*self.RUN, "--json", "--trace", str(trace), "--trace-format", trace_format], tmp_path)
        assert done.returncode == 0, done.stderr
        summary = json.loads(done.stdout)
        assert summary["succeeded"] and summary["makespan"] == 503.104
        names = [record.name for record in read_trace(trace)]
        assert names.count("enactment.invoke") == 30 and names.count("broker.deliver") == 160

    def test_a_sweep_leaves_complete_artifacts(self, tmp_path):
        argv = [
            "sweep", "--scenario", "montage:size=30,seed=1", "--param", "nodes=5,10",
            "--csv", str(tmp_path / "rows.csv"), "--json-out", str(tmp_path / "sweep.json"), "--json",
        ]
        done = ginflow(argv, tmp_path)
        assert done.returncode == 0, done.stderr
        assert len(json.loads(done.stdout)["rows"]) == 2
        assert len(json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))["rows"]) == 2
        assert len((tmp_path / "rows.csv").read_text(encoding="utf-8").splitlines()) == 3


# ----------------------------------------------------------------- start-up
def modules_after(argv, tmp_path, watched=("numpy", "networkx"), prelude=""):
    """Which of the ``watched`` modules a fresh interpreter holds after ``ginflow argv``
    (``prelude`` runs first: a seeded violation); ``watched=REPRO`` reports
    how many ``repro`` modules it holds instead."""
    held = (
        "len([m for m in sys.modules if m == 'repro' or m.startswith('repro.')])" if watched is REPRO
        else f"sorted(m for m in {watched!r} if m in sys.modules)"
    )
    script = (
        f"{prelude}\n"
        "import sys\n"
        "from repro.cli import main\n"
        f"status = main({argv!r})\n"
        f"print('LOADED', status, {held})\n"
    )
    done = fresh_interpreter(script, tmp_path)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


#: ``modules_after(..., watched=REPRO)``: count the ``repro.*`` modules
REPRO = object()


class TestStartUpWithoutNumpyAndNetworkx:
    def test_scenario_run_on_asyncio(self, tmp_path):
        argv = ["run", "--scenario", "longchain:size=20", "--mode", "asyncio"]
        assert modules_after(argv, tmp_path) == "LOADED 0 []"

    @pytest.mark.parametrize("mode", AGENT_MODES)
    def test_json_file_run(self, mode, tmp_path):
        # nor the scenario catalog: it is imported when a scenario is looked up
        path = tmp_path / "adaptive.json"
        workflow_to_json(adaptive_diamond_workflow(2, 2, duration=0.01), path)
        watched = ("numpy", "networkx", "repro.scenarios.catalog")
        assert modules_after(["run", str(path), "--mode", mode], tmp_path, watched) == "LOADED 0 []"
        argv = ["run", "--scenario", "longchain:size=20", "--mode", mode]
        assert modules_after(argv, tmp_path, watched) == "LOADED 0 ['repro.scenarios.catalog']"

    @pytest.mark.parametrize(
        "options",
        [
            ["--mode", "simulated"],
            ["--mode", "centralized"],
            ["--mode", "simulated", "--executor", "mesos", "--broker", "kafka",
             "--failure-probability", "0.5", "--failure-delay", "15"],
        ],
        ids=["simulated", "centralized", "recovering"],
    )
    def test_montage_draws_without_numpy(self, options, tmp_path):
        # no run off the asyncio runtime loads asyncio either
        argv = ["run", "--scenario", "montage:size=30,seed=1", *options, "--seed", "1", "--json"]
        assert modules_after(argv, tmp_path, ("numpy", "networkx", "asyncio")) == "LOADED 0 []"

    def test_a_seeded_asyncio_import_in_a_simulated_run_is_caught(self, tmp_path):
        seeded = (
            "import repro.runtime.simulation as simulation\n"
            "_run = simulation.run_simulation\n"
            "def run_simulation(*args):\n"
            "    import asyncio\n"
            "    return _run(*args)\n"
            "simulation.run_simulation = run_simulation\n"
        )
        argv = ["run", "--scenario", "montage:size=30,seed=1", "--mode", "simulated", "--seed", "1", "--json"]
        assert modules_after(argv, tmp_path, ("asyncio",), prelude=seeded) == "LOADED 0 ['asyncio']"

    @pytest.mark.parametrize("argv", [["scenarios", "--names"], ["backends"]])
    def test_listing_commands(self, argv, tmp_path):
        assert modules_after(argv, tmp_path) == "LOADED 0 []"

    @pytest.mark.parametrize("mode", ["simulated", "centralized", "asyncio"])
    def test_a_runtime_driver_loads_when_it_is_built_not_when_it_is_listed(self, mode, tmp_path):
        # every run lists the runtimes (--mode choices); only an asyncio run pays for asyncio
        drivers = ("asyncio", "repro.runtime.aio", "repro.runtime.driver", "repro.runtime.simulation")
        argv = ["run", "--scenario", "longchain:size=20", "--mode", mode]
        own = {
            "simulated": ["repro.runtime.driver", "repro.runtime.simulation"],
            "asyncio": ["asyncio", "repro.runtime.aio", "repro.runtime.driver"],
            "centralized": [],
        }
        assert modules_after(argv, tmp_path, drivers) == f"LOADED 0 {own[mode]}"
        assert modules_after(["backends", "--kind", "runtime"], tmp_path, drivers) == "LOADED 0 []"

    def test_what_no_command_uses_is_not_imported_at_start_up(self, tmp_path):
        # graphlib only names a cycle the workflow's own Kahn pass found; the
        # trace exporter and the summariser are --trace's and `trace`'s, the
        # analyzer lint's and audit's, the experiments sweep's, and the figure
        # drivers no command's
        unused = (
            "pickle", "graphlib", "repro.hocl.parser", "repro.obs.export", "repro.obs.summarize",
            "repro.analysis", "repro.experiments", "repro.bench",
        )
        assert modules_after(["backends"], tmp_path, unused) == "LOADED 0 []"
        argv = ["run", "--scenario", "montage:size=30,seed=1", "--json"]
        assert modules_after(argv, tmp_path, unused) == "LOADED 0 []"

    def test_a_seeded_summariser_import_in_a_run_is_caught(self, tmp_path):
        seeded = (
            "import repro.commands\n"
            "_run = repro.commands.run\n"
            "def run(args):\n"
            "    import repro.obs.summarize\n"
            "    return _run(args)\n"
            "repro.commands.run = run\n"
        )
        argv = ["run", "--scenario", "montage:size=30,seed=1", "--json"]
        watched = ("repro.obs.export", "repro.obs.summarize")
        assert modules_after(argv, tmp_path, watched, prelude=seeded) == "LOADED 0 ['repro.obs.summarize']"

    def test_a_seeded_graphlib_import_at_start_up_is_caught(self, tmp_path):
        seeded = (
            "import repro.cli\n"
            "_build = repro.cli.build_parser\n"
            "def build_parser():\n"
            "    import graphlib\n"
            "    return _build()\n"
            "repro.cli.build_parser = build_parser\n"
        )
        assert modules_after(["backends"], tmp_path, ("graphlib",), prelude=seeded) == "LOADED 0 ['graphlib']"

    def test_nothing_generated_at_start_up(self, tmp_path):
        """Run-path records are written out by hand: ``dataclasses`` and the
        ``inspect`` it pulls in were 60 % of ``import repro.cli``."""
        generators = ("dataclasses", "inspect")
        script = f"import sys\nimport repro.cli\nprint(sorted(m for m in {generators!r} if m in sys.modules))\n"
        done = fresh_interpreter(script, tmp_path)
        assert done.returncode == 0 and done.stdout.split() == ["[]"], done.stderr
        path = tmp_path / "adaptive.json"
        workflow_to_json(adaptive_diamond_workflow(2, 2, duration=0.01), path)
        for options in (["--mode", "simulated"], ["--mode", "centralized"],
                        ["--mode", "simulated", "--broker", "kafka", "--failure-probability", "0.5"]):  # fmt: skip
            argv = ["run", "--scenario", "montage:size=30,seed=1", *options, "--json"]
            assert modules_after(argv, tmp_path, generators) == "LOADED 0 []", options
        assert modules_after(["run", str(path), "--mode", "simulated"], tmp_path, generators) == "LOADED 0 []"
        # asyncio imports inspect itself; nothing of ours generates a record there either
        argv = ["run", "--scenario", "longchain:size=20", "--mode", "asyncio"]
        assert modules_after(argv, tmp_path, ("dataclasses",)) == "LOADED 0 []"

    def test_no_numpy_or_networkx_import_left_in_src(self):
        import pathlib

        import repro

        oracle_only = re.compile(r"(import|from) +(numpy|networkx)")
        sources = pathlib.Path(repro.__file__).parent.rglob("*.py")
        assert not [str(path) for path in sources if oracle_only.search(path.read_text(encoding="utf-8"))]


class TestEachCommandLoadsWhatItRuns:
    """``repro`` modules held after a listing command, pinned at the measured
    count (a CPython-independent measure: the standard library's own imports
    differ from version to version)."""

    PINS = {"backends": 13, "scenarios": 23}

    @pytest.mark.parametrize("command", sorted(PINS))
    def test_a_listing_loads_at_most_its_pin(self, command, tmp_path):
        loaded = int(modules_after([command], tmp_path, REPRO).split()[-1])
        assert loaded <= self.PINS[command]

    @pytest.mark.parametrize("command", sorted(PINS))
    def test_a_seeded_eager_import_breaks_the_pin(self, command, tmp_path):
        # an executor imported at module level, as a class-valued builder in
        # runtime/config.py would need
        seeded = "import repro.runtime.config\nimport repro.executors.mesos\n"
        loaded = int(modules_after([command], tmp_path, REPRO, prelude=seeded).split()[-1])
        assert loaded > self.PINS[command]


# --------------------------------------------------------------- validation
class TestValidateOncePerRun:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = Workflow.validate

        def validate(self):
            seen.append(self.name)
            return original(self)

        monkeypatch.setattr(Workflow, "validate", validate)
        return seen

    def test_json_run_validates_each_workflow_object_once(self, calls, tmp_path):
        path = tmp_path / "adaptive.json"
        workflow_to_json(adaptive_diamond_workflow(3, 3, duration=0.01), path)
        calls.clear()  # building the workflow above validated too
        assert GinFlow().run(str(path), nodes=3).succeeded
        assert len(calls) == 2 and len(set(calls)) == 2  # the workflow and its replacement

    @pytest.mark.parametrize("mode", MODES)
    def test_object_run_validates_once_and_again_after_a_mutation(self, calls, mode):
        workflow = diamond_workflow(2, 2, duration=0.01)
        for _ in range(2):
            assert GinFlow().run(workflow, mode=mode, nodes=3).succeeded
        assert len(calls) == 1
        workflow.add_task("late", service="s", inputs=["x"])
        GinFlow().run(workflow, mode=mode, nodes=3)
        assert len(calls) == 2

    def test_a_cycle_added_after_validation_is_still_caught(self):
        workflow = diamond_workflow(2, 2)
        workflow.validate()
        workflow.add_dependency("merge", "split")
        with pytest.raises(Exception, match="cycle"):
            GinFlow().run(workflow)
        with pytest.raises(Exception, match="cycle"):
            encode_workflow(workflow)

    def test_find_cycle_names_the_tasks_in_edge_order(self):
        workflow = workflow_from_json({"name": "ok", "tasks": [{"name": name, "service": "s"} for name in "abcd"]})
        workflow.chain("a", "b", "c", "a")
        cycle = workflow.find_cycle()
        assert sorted(cycle) == ["a", "b", "c"]
        assert all(later in workflow.successors(earlier) for earlier, later in zip(cycle, cycle[1:] + cycle[:1]))
        assert diamond_workflow(2, 2).find_cycle() is None


class TestTopologicalOrderIsPinned:
    @pytest.mark.parametrize("family", available_scenarios())
    def test_same_order_and_levels_as_networkx(self, family):
        nx = pytest.importorskip("networkx")
        for seed in (1, 2):
            workflow = build_scenario(f"{family}:size=60,seed={seed}")
            graph = nx.DiGraph()
            graph.add_nodes_from(workflow.task_names())
            graph.add_edges_from(workflow.dependencies())
            assert workflow.topological_order() == list(nx.topological_sort(graph))
            depth = {}
            for name in nx.topological_sort(graph):
                depth[name] = 1 + max((depth[p] for p in graph.predecessors(name)), default=-1)
            levels = [[n for n in depth if depth[n] == level] for level in range(max(depth.values()) + 1)]
            assert workflow.levels() == levels

    def test_nine_families(self):
        assert len(available_scenarios()) == 9


# ----------------------------------------------------------------- recovery
class TestRecoveredAgentKeepsItsTracer:
    def test_agent_spans_after_the_crash(self):
        obs = Observability(tracer=RecordingTracer())
        config = GinFlowConfig(
            executor="mesos", broker="kafka", nodes=10, seed=1, obs=obs,
            failures=FailureModel(probability=0.5, delay=15.0),
        )
        report = GinFlow(config).run(build_scenario("montage:size=60,seed=1"))
        assert report.succeeded and report.recoveries > 0
        crashed_at = {}
        for event in report.timeline:
            if event.event == "failure":
                crashed_at.setdefault(event.task, event.time)
        assert crashed_at
        for task, moment in crashed_at.items():
            after = [
                span for span in obs.tracer.spans
                if span.track == task and span.name.startswith("agent.") and span.vt > moment
            ]
            assert after, f"no agent.* span on {task!r} after its crash at {moment}"
            # and the reduction spans inside them: the engine got the tracer too
            assert any(
                span.track == task and span.name.startswith("reduction.") and span.vt > moment
                for span in obs.tracer.spans
            )

    def test_the_replaced_core_is_taken_apart(self, monkeypatch):
        """Its solution is cyclic garbage (nested solutions know their
        holders): ``recover`` empties it, so no dead core waits for a pass of
        the collector (up to 56 unreachable objects per recovery otherwise)."""
        sizes, unreachable = [], []
        original = EnactmentEngine.recover

        def recover(self, host):
            crashed = host.core
            before = len(crashed.solution)
            gc.collect()
            result = original(self, host)
            sizes.append((before, len(crashed.solution)))
            del crashed  # nobody holds the dead core any more
            unreachable.append(gc.collect())
            return result

        monkeypatch.setattr(EnactmentEngine, "recover", recover)
        config = GinFlowConfig(
            executor="mesos", broker="kafka", nodes=10, seed=1, failures=FailureModel(probability=0.5, delay=15.0)
        )
        report = GinFlow(config).run(build_scenario("montage:size=60,seed=1"))
        assert report.succeeded and len(sizes) == report.recoveries > 0
        assert all(before > 0 and after == 0 for before, after in sizes)
        assert sum(unreachable) == 0, unreachable


# ------------------------------------------------------------------ logging
class TestOneAgentsLogger:
    def test_no_logger_per_task_name(self):
        manager = logging.Logger.manager
        before = set(manager.loggerDict)
        GinFlow().run(build_scenario("longchain:size=50"), mode="asyncio")
        assert set(manager.loggerDict) - before <= {"repro.agents"}

    def test_task_name_is_in_the_message(self, caplog):
        encoding = encode_workflow(diamond_workflow(2, 2))
        with caplog.at_level(logging.DEBUG, logger="repro.agents"):
            AgentCore(encoding.tasks["split"]).boot()
        assert any(record.name == "repro.agents" and "split boot" in record.getMessage() for record in caplog.records)
