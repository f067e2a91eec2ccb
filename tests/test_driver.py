"""Properties of the one agent driver (:class:`repro.runtime.driver.AgentRun`).

Most cases run the driver on a clock the test turns by hand — a heap of timed
calls, every stimulus served a quarter second after it ran, an invocation that
takes its nominal duration, crashes picked by label — so each property is
checked on the driver alone, on a third clock neither runtime uses:

* hosting: every agent hosted and subscribed before any boots, each boot
  queued at the boot delay, in host order; the run is the engine's clock;
* stimuli: actions dispatch only once served, and not at all when their agent
  crashed in between; a message for a down agent is dropped; a raising
  stimulus goes to the clock's ``_raised``;
* invocations: the completion comes back after the clock's invocation time,
  not for an older incarnation; an awaitable is the clock's to await;
* crash and recovery: a crash drawn inside the invocation replaces its
  completion, the agent is down for the recovery delay, then rebuilt on the
  same host from the broker's log and served with the replayed count.

The last cases check what each real clock supplies: how it serves a stimulus,
how long an invocation takes on it, what an awaitable service result becomes
and where a raising stimulus ends up.
"""

from __future__ import annotations

import ast
import heapq
import itertools
import math
import time
from pathlib import Path

import pytest

from repro.agents import StartInvocation
from repro.runtime import AsyncioRun, GinFlowConfig, SimulatedRun
from repro.runtime import driver as driver_module
from repro.runtime.driver import AgentRun
from repro.runtime.enactment import EnactmentEngine
from repro.services import FailureModel, InvocationResult, ServiceRegistry
from repro.workflow import Task, Workflow

#: how long after a stimulus ran the hand-turned clock dispatches its actions
SERVE = 0.25
#: when the hand-turned clock boots every agent
BOOT = 1.0
#: detection + restart of the failure model below: longer than one invocation
RECOVERY = 5.0
#: the two clocks of the runtimes
CLOCKS = {"simulated": SimulatedRun, "asyncio": AsyncioRun}


def chain(duration: float = 3.0) -> Workflow:
    """``A -> B``, each a synthetic service of nominal ``duration``."""
    workflow = Workflow("chain")
    workflow.add_task(Task("A", "svc", duration=duration))
    workflow.add_task(Task("B", "svc", duration=duration))
    workflow.add_dependency("A", "B")
    return workflow


class ScriptedCrashes:
    """A failure model whose crashes the test picks: ``label -> seconds into the invocation``."""

    def __init__(self, crashes: dict[str, float]) -> None:
        self.crashes = crashes
        self.drawn: list[tuple[str, float]] = []

    def crash_time(self, duration, randomness, label):
        self.drawn.append((label, duration))
        return self.crashes.get(label)


class HandRun(AgentRun):
    """The driver on a clock the test turns by hand."""

    def __init__(self, workflow: Workflow, config: GinFlowConfig | None = None, crashes=None) -> None:
        failures = FailureModel(probability=0.5, delay=1.0, detection_delay=1.0, restart_delay=4.0)
        super().__init__(workflow, config or GinFlowConfig(broker="kafka", failures=failures))
        #: crashes only where ``crashes`` names one
        self._failures = ScriptedCrashes(crashes or {})
        self.time = 0.0
        self._calls: list = []
        self._order = itertools.count()
        #: ``(time, agent, actions, units, replayed)`` of every stimulus served
        self.served: list = []
        #: ``(time, agent, actions)`` of every dispatch that reached the engine
        self.dispatched: list = []
        self.awaited: list = []
        self.raised: list = []

    # the clock
    def now(self) -> float:
        return self.time

    def call_later(self, delay, function, *args) -> None:
        heapq.heappush(self._calls, (self.time + delay, next(self._order), function, args))

    def _serve(self, agent, actions, units, replayed=None) -> None:
        self.served.append((self.time, agent.name, tuple(actions), units, replayed))
        self.call_later(SERVE, self._dispatch, agent, actions, agent.incarnation)

    def _invocation_time(self, duration: float) -> float:
        return duration

    def _awaitable(self, agent, prepared, outcome):
        outcome.value.close()
        self.awaited.append(prepared.service_name)
        return None

    # turning it
    def start(self) -> EnactmentEngine:
        engine = self._enact(self.config.build_local_broker())
        dispatch = engine.dispatch

        def recording(agent, actions):
            self.dispatched.append((self.time, agent.name, tuple(actions)))
            dispatch(agent, actions)

        engine.dispatch = recording
        self._host_agents(BOOT)
        return engine

    def advance(self, until: float = math.inf) -> None:
        """Run every call due by ``until``, in time order (FIFO among equals)."""
        while self._calls and self._calls[0][0] <= until:
            self.time, _, function, args = heapq.heappop(self._calls)
            function(*args)

    def queued(self) -> list[tuple[float, str]]:
        return [(at, function.__name__) for at, _, function, _ in sorted(self._calls)]

    def dispatch_times(self, name: str) -> list[float]:
        return [at for at, agent, _ in self.dispatched if agent == name]

    def events(self) -> list[tuple[float, str, str]]:
        return [
            (event.time, event.task, event.event)
            for event in self.engine.coordinator.timeline
            if event.event in ("failure", "recovery")
        ]


def invocations(actions) -> int:
    return sum(isinstance(action, StartInvocation) for action in actions)


class TestHosting:
    def test_every_agent_is_hosted_and_subscribed_before_any_boots(self):
        run = HandRun(chain())
        engine = run.start()
        assert list(engine.hosts) == ["A", "B"]
        assert all(agent.started_at is None and agent.alive for agent in engine.hosts.values())
        assert run.served == [] and run.dispatched == []
        assert run.queued() == [(BOOT, "_stimulate"), (BOOT, "_stimulate")]

    def test_boots_run_at_the_boot_delay_in_host_order(self):
        run = HandRun(chain())
        engine = run.start()
        run.advance(BOOT)
        assert [(at, name) for at, name, *_ in run.served] == [(BOOT, "A"), (BOOT, "B")]
        assert {agent.started_at for agent in engine.hosts.values()} == {BOOT}

    def test_the_run_is_the_engines_clock(self):
        run = HandRun(chain())
        engine = run.start()
        assert engine.clock is run
        run.advance()
        assert engine.hosts["B"].finished_at == run.now() - SERVE
        assert engine.coordinator.completion_time == run.now()


class TestStimuli:
    def test_actions_dispatch_only_once_served(self):
        run = HandRun(chain())
        run.start()
        run.advance(BOOT)
        (served_at, _, actions, _, _) = run.served[0]
        assert invocations(actions) == 1 and run.dispatched == []
        run.advance(BOOT + SERVE)
        assert run.dispatched[0] == (served_at + SERVE, "A", actions)

    def test_the_clock_is_told_the_reduction_units_of_each_stimulus(self):
        run = HandRun(chain())
        engine = run.start()
        run.advance()
        for name, agent in engine.hosts.items():
            units = [entry[3] for entry in run.served if entry[1] == name]
            # boot, (B: A's result,) completion: each stimulus its own units, which add up to the agent's
            assert len(units) == {"A": 2, "B": 3}[name] and all(count > 0 for count in units)
            assert sum(units) == pytest.approx(agent.core.reduction_units)
        assert {entry[4] for entry in run.served} == {None}  # no replay: no crashed agent rebuilt

    def test_a_message_for_a_down_agent_is_dropped(self):
        run = HandRun(chain())
        engine = run.start()
        agent = engine.hosts["A"]
        agent.alive = False
        ran = []
        run._stimulate(agent, lambda host: ran.append(host) or [])
        assert ran == [] and run.served == []

    def test_actions_served_before_a_crash_are_not_dispatched_after_it(self):
        run = HandRun(chain())
        engine = run.start()
        run.advance(BOOT)
        agent = engine.hosts["A"]
        run._crash(agent, agent.incarnation)
        run.advance(BOOT + SERVE)
        assert run.dispatch_times("A") == []  # the boot's StartInvocation went with the crash
        run.advance(BOOT + RECOVERY + SERVE)
        assert run.dispatch_times("A") == [BOOT + RECOVERY + SERVE]
        assert agent.attempts == 1

    def test_actions_of_an_earlier_incarnation_are_not_dispatched_by_the_next(self):
        run = HandRun(chain())
        engine = run.start()
        run.advance(BOOT)
        agent = engine.hosts["A"]
        run._crash(agent, agent.incarnation)
        run._recover(agent)  # alive again before the first incarnation's boot is dispatched
        run.advance(BOOT + SERVE)
        # one dispatch, the rebuilt agent's: the first boot's StartInvocation is not run twice
        assert run.dispatch_times("A") == [BOOT + SERVE]
        assert agent.attempts == 1

    def test_a_raising_stimulus_propagates_by_default(self):
        run = HandRun(chain())
        engine = run.start()

        def stimulus(host):
            raise RuntimeError("a protocol bug")

        with pytest.raises(RuntimeError, match="a protocol bug"):
            run._stimulate(engine.hosts["A"], stimulus)
        assert run.served == []

    def test_a_clock_may_end_the_run_on_a_raising_stimulus_instead(self):
        class Ending(HandRun):
            def _raised(self, error):
                self.raised.append(error)

        run = Ending(chain())
        engine = run.start()
        error = RuntimeError("a protocol bug")

        def stimulus(host):
            raise error

        run._stimulate(engine.hosts["A"], stimulus)
        assert run.raised == [error] and run.served == []


class TestInvocation:
    def test_the_completion_comes_back_after_the_invocation_time(self):
        run = HandRun(chain(duration=3.0))
        engine = run.start()
        run.advance()
        a, b = engine.hosts["A"], engine.hosts["B"]
        assert a.finished_at == BOOT + SERVE + 3.0
        # A's result reaches B inside the dispatch of A's completion: B's invocation starts one serve later
        assert b.finished_at == a.finished_at + 2 * SERVE + 3.0
        assert (a.attempts, b.attempts, a.failures, b.failures) == (1, 1, 0, 0)

    def test_a_completion_for_an_older_incarnation_is_dropped(self, monkeypatch):
        completed = []
        monkeypatch.setattr(EnactmentEngine, "complete_invocation", lambda self, host, outcome: completed.append(host) or [])
        run = HandRun(chain())
        engine = run.start()
        agent = engine.hosts["A"]
        agent.incarnation = 1
        run._complete_invocation(agent, 0, InvocationResult("late", 3.0))
        assert completed == [] and run.served == []
        run._complete_invocation(agent, 1, InvocationResult("on time", 3.0))
        assert completed == [agent]

    def test_an_awaitable_is_the_clocks_to_complete(self):
        registry = ServiceRegistry()

        async def later(*parameters):
            return "out"

        registry.register_function("svc", later)
        failures = FailureModel(probability=0.5, delay=1.0)
        run = HandRun(chain(), GinFlowConfig(broker="kafka", registry=registry, failures=failures))
        engine = run.start()
        run.advance()
        assert run.awaited == ["svc"]
        # no completion, no crash drawn: the clock has the invocation now
        assert run._failures.drawn == [] and engine.hosts["A"].finished_at is None

    def test_an_awaitable_the_clock_resolves_completes_after_the_invocation_time(self):
        class Failing(HandRun):
            def _awaitable(self, agent, prepared, outcome):
                outcome.value.close()
                return InvocationResult(None, outcome.duration, failed=True, error="cannot await")

        registry = ServiceRegistry()

        async def later(*parameters):
            return "out"

        registry.register_function("svc", later)
        run = Failing(chain(duration=3.0), GinFlowConfig(registry=registry))
        engine = run.start()
        run.advance()
        a = engine.hosts["A"]
        assert a.finished_at == BOOT + SERVE + 3.0
        assert (a.attempts, a.failures) == (1, 1) and engine.hosts["B"].attempts == 0


class TestCrashAndRecovery:
    def test_a_crash_drawn_inside_the_invocation_replaces_its_completion(self):
        run = HandRun(chain(duration=3.0), crashes={"crash:A:1": 1.0})
        engine = run.start()
        run.advance(BOOT + SERVE + 3.0)
        agent = engine.hosts["A"]
        assert agent.finished_at is None  # the completion never came
        assert (agent.alive, agent.incarnation, agent.failures) == (False, 1, 1)
        assert engine.report.failures_injected == 1 and engine.report.recoveries == 0
        assert run.events() == [(BOOT + SERVE + 1.0, "A", "failure")]

    def test_a_crash_drawn_at_the_invocation_time_or_later_is_not_injected(self):
        run = HandRun(chain(duration=3.0), crashes={"crash:A:1": 3.0, "crash:B:1": 4.0})
        engine = run.start()
        run.advance()
        assert [label for label, _ in run._failures.drawn] == ["crash:A:1", "crash:B:1"]
        assert engine.report.failures_injected == 0 and run.events() == []
        assert engine.hosts["B"].finished_at == BOOT + SERVE + 3.0 + 2 * SERVE + 3.0

    def test_the_agent_is_down_for_the_recovery_delay_then_rebuilt_on_its_host(self):
        run = HandRun(chain(duration=3.0), crashes={"crash:A:1": 1.0})
        engine = run.start()
        agent = engine.hosts["A"]
        crashed_core = agent.core
        crash = BOOT + SERVE + 1.0
        run.advance(crash + RECOVERY - 0.01)
        assert not agent.alive and engine.report.recoveries == 0
        run.advance(crash + RECOVERY)
        assert engine.hosts["A"] is agent and agent.alive and agent.core is not crashed_core
        assert engine.report.recoveries == 1
        assert run.events() == [(crash, "A", "failure"), (crash + RECOVERY, "A", "recovery")]

    def test_the_replay_is_served_with_its_message_count(self):
        # B crashes in its first invocation, after A's result reached it: its rebuild replays that one message
        b_invoked = BOOT + SERVE + 3.0 + 2 * SERVE
        run = HandRun(chain(duration=3.0), crashes={"crash:B:1": 1.0})
        engine = run.start()
        run.advance(b_invoked + 1.0 + RECOVERY)
        (at, name, actions, units, replayed) = run.served[-1]
        assert (at, name, replayed) == (b_invoked + 1.0 + RECOVERY, "B", 1)
        assert units == engine.hosts["B"].core.reduction_units > 0
        assert invocations(actions) == 1  # the replayed input starts the invocation again

    def test_a_crashed_agent_runs_again_to_success(self):
        run = HandRun(chain(duration=3.0), crashes={"crash:B:1": 1.0})
        engine = run.start()
        run.advance()
        b = engine.hosts["B"]
        assert (b.attempts, b.failures, b.incarnation) == (2, 1, 1)
        assert engine.coordinator.completed
        b_recovered = BOOT + SERVE + 3.0 + 2 * SERVE + 1.0 + RECOVERY
        assert b.finished_at == b_recovered + SERVE + 3.0
        assert [label for label, _ in run._failures.drawn] == ["crash:A:1", "crash:B:1", "crash:B:2"]

    def test_a_stale_crash_is_a_no_op(self):
        run = HandRun(chain())
        engine = run.start()
        agent = engine.hosts["A"]
        run._crash(agent, agent.incarnation + 1)  # an incarnation that is not (or no longer) the agent's
        agent.alive = False
        run._crash(agent, agent.incarnation)  # an agent already down
        assert (agent.incarnation, agent.failures, engine.report.failures_injected) == (0, 0, 0)
        assert run.queued() == [(BOOT, "_stimulate"), (BOOT, "_stimulate")]


class TestTheDriverKnowsNoClock:
    def test_it_imports_no_asyncio_and_names_no_clock(self):
        tree = ast.parse(Path(driver_module.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not {name for name in imported if name and "asyncio" in name}
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"SimulatedRun", "AsyncioRun", "Simulator", "SerialQueue", "asyncio"}


class TestWhatEachClockSupplies:
    """The hooks that set the clocks apart, each checked on both."""

    @pytest.mark.parametrize("clock", ["simulated", "asyncio"])
    def test_how_a_stimulus_is_served(self, clock, monkeypatch):
        run_class = CLOCKS[clock]
        serve, dispatch = run_class._serve, EnactmentEngine.dispatch
        served, dispatched = [], []

        def serving(self, agent, actions, units, replayed=None):
            served.append((agent.name, self.now(), units))
            serve(self, agent, actions, units, replayed)

        def dispatching(self, host, actions):
            dispatched.append((host.name, self.clock.now(), len(served)))
            dispatch(self, host, actions)

        monkeypatch.setattr(run_class, "_serve", serving)
        monkeypatch.setattr(EnactmentEngine, "dispatch", dispatching)
        workflow = chain(duration=0.5)
        report = run_class(workflow, GinFlowConfig(mode=clock)).run()
        assert report.succeeded
        assert len(dispatched) == len(served)
        if clock == "simulated":
            # on the agent's serial queue, for the modelled handling cost of its reduction
            costs = GinFlowConfig().costs
            first = {}
            for name, at, units in served:
                first.setdefault(name, at + costs.handling_cost(units))
            assert {name: at for name, at, _ in reversed(dispatched)} == pytest.approx(first)
        else:
            # at once, inside the serve step: each dispatch follows its own serve
            assert [count for _, _, count in dispatched] == list(range(1, len(served) + 1))

    @pytest.mark.parametrize("clock", ["simulated", "asyncio"])
    def test_how_long_an_invocation_takes(self, clock):
        run = CLOCKS[clock](chain(duration=30.0), GinFlowConfig(mode=clock))
        start = time.monotonic()
        report = run.run()
        a = report.tasks["A"]
        if clock == "simulated":
            # the nominal duration plus the invocation overhead, in virtual seconds
            assert run._invocation_time(30.0) == 30.0 + run.config.costs.invocation_overhead
            assert run._invocation_time(-1.0) == run.config.costs.invocation_overhead
            assert a.finished_at - a.started_at >= 30.0
        else:
            # a synchronous service has done its work at dispatch: the nominal duration is not slept
            assert run._invocation_time(30.0) == 0.0
            assert time.monotonic() - start < 10.0
        assert report.succeeded and report.results["B"] == "B-out"

    @pytest.mark.parametrize("clock", ["simulated", "asyncio"])
    def test_what_an_awaitable_service_result_becomes(self, clock):
        registry = ServiceRegistry()

        async def later(*parameters):
            return "later"

        registry.register_function("svc", later)
        report = CLOCKS[clock](chain(), GinFlowConfig(mode=clock, registry=registry)).run()
        a = report.tasks["A"]
        if clock == "simulated":
            # virtual time cannot await: the task fails, and its successor never runs
            assert not report.succeeded and a.error and a.failures == a.attempts == 1
            assert report.tasks["B"].attempts == 0
        else:
            # awaited on the loop, then completed like a synchronous result
            assert report.succeeded and report.results["B"] == "later"

    @pytest.mark.parametrize("clock", ["simulated", "asyncio"])
    def test_where_a_raising_stimulus_ends_up(self, clock, monkeypatch):
        deliver = EnactmentEngine.deliver

        def raising(self, host, message):
            if host.name == "B":
                raise RuntimeError("injected into deliver")
            return deliver(self, host, message)

        monkeypatch.setattr(EnactmentEngine, "deliver", raising)
        run = CLOCKS[clock](chain(), GinFlowConfig(mode=clock))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="injected into deliver") as raised:
            run.run()
        functions = [entry.name for entry in raised.traceback]
        if clock == "simulated":
            # straight out of the kernel's event loop, from the callback that ran the stimulus
            assert "run_async" not in functions and functions.index("run") < functions.index("_stimulate")
        else:
            # the run's future resolves at once, and the run re-raises it
            assert "run_async" in functions and time.monotonic() - start < 10.0
