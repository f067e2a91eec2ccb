"""Regression tests for the runtime-layer bugfixes of PR 4 and PR 14.

* ADAPT payload coercion: live delivery (``EnactmentEngine.deliver``) and
  log-replay recovery (``recovery.replay_messages``) must apply the *same*
  coercion, so a replayed agent reaches the exact state of the agent it
  replaces (Section IV-B).
* Silent invocation loss in the asyncio runtime: a service whose ``invoke``
  *raises* (instead of returning a failed result) must surface as a failed
  task, not hang the run until timeout.
* Timeout swallowing: a run cut off by its wall-clock timeout must report
  ``timed_out=True`` and ``succeeded=False`` on the asyncio runtime — and so
  must a simulated run cut off at its virtual horizon with calls still queued
  (a queue that drains is a stall, not that).
* A reduction cut off at its step bound ends the run with a
  ``ReductionError`` naming the agent, on every runtime — not a stall until
  the virtual horizon or the wall-clock timeout.
* A service result with no HOCL atom form (``None``, a dict, ...) is a failure
  of the task on every runtime — not an ``AtomError`` or ``ReductionError``
  out of ``run``, nor a worker lost to one and a wait until the timeout.
"""

from __future__ import annotations

import gc
import json
import time
import warnings

import pytest

from repro import cli, commands
from repro.agents import AgentCore
from repro.agents.recovery import rebuild_agent
from repro.hocl import ReductionError
from repro.hoclflow.translator import encode_workflow
from repro.messaging import InProcessBroker, Message, MessageKind, adapt_count, agent_topic
from repro.runtime import AsyncioRun, GinFlow, GinFlowConfig, RunReport, run_asyncio, run_simulation
from repro.runtime.enactment import AgentHost, EnactmentEngine, PreparedInvocation
from repro.services import InvocationContext, InvocationResult, Service, ServiceRegistry
from repro.workflow import Task, Workflow, adaptive_diamond_workflow, diamond_workflow, split_workflow
from repro.workflow.json_format import workflow_to_json


class TestAdaptCoercionParity:
    def test_adapt_count_coercion(self):
        assert adapt_count(None) == 1  # bare marker message
        assert adapt_count(0) == 0
        assert adapt_count(2) == 2
        assert adapt_count("3") == 3

    def _adapt_message(self, task: str, payload) -> Message:
        return Message(
            topic=agent_topic(task),
            kind=MessageKind.ADAPT,
            sender="tester",
            recipient=task,
            payload=payload,
        )

    def test_live_delivery_and_replay_reach_the_same_state(self):
        # the adaptation-trigger task of the adaptive diamond accepts ADAPT
        workflow = adaptive_diamond_workflow(2, 2)
        encoding = encode_workflow(workflow)
        task_name = next(iter(encoding.tasks))
        task_encoding = encoding.tasks[task_name]

        for payload in (None, 0, 1, 2, "2"):
            config = GinFlowConfig(mode="asyncio")
            engine = EnactmentEngine(
                config=config,
                encoding=encoding,
                clock=AsyncioRun(workflow, config),
                transport=InProcessBroker(config.broker_profile()),
                invoker=lambda host, prepared: None,
            )
            live = engine.add_host(
                AgentHost(encoding=task_encoding, core=AgentCore(task_encoding))
            )
            engine.boot(live)
            message = self._adapt_message(task_name, payload)
            engine.deliver(live, message)

            replayed_core, _actions = rebuild_agent(task_encoding, [message])
            assert replayed_core.solution == live.core.solution, (
                f"replayed agent diverged from live agent for payload {payload!r}"
            )
            assert replayed_core.adaptations_applied == live.core.adaptations_applied


class _RaisingService(Service):
    """A service whose ``invoke`` raises — modelling broken service wiring.

    ``PythonService`` converts callable exceptions into failed results, so
    the only way ``PreparedInvocation.invoke`` can raise is a bug at this
    level; the runtime must still convert it into a failed task instead of
    losing the invocation.
    """

    def invoke(self, parameters: list, context: InvocationContext) -> InvocationResult:
        raise RuntimeError("service wiring exploded")


class TestInvocationLoss:
    def _check(self, runner, mode):
        registry = ServiceRegistry()
        registry.register(_RaisingService("broken"))
        workflow = Workflow("raising")
        workflow.add_task(Task("A", "broken"))
        config = GinFlowConfig(mode=mode, registry=registry)
        start = time.monotonic()
        report = runner(workflow, config, timeout=10.0)
        elapsed = time.monotonic() - start
        # the failure is fed back into the chemistry: no hang-until-timeout
        assert elapsed < 5.0
        assert not report.succeeded
        assert not report.timed_out
        assert report.tasks["A"].error
        assert report.tasks["A"].failures == 1

    def test_raising_invoke_fails_the_task_instead_of_hanging_asyncio(self):
        self._check(run_asyncio, "asyncio")

    def test_raising_invoke_fails_the_task_instead_of_hanging_simulated(self):
        self._check(run_simulation, "simulated")


class TestResultWithoutAtomForm:
    @staticmethod
    def _run(mode: str, nothing) -> "RunReport":
        """``A -> B`` where the exit task ``B`` runs the service under test."""
        ginflow = GinFlow()
        ginflow.register_service("one", lambda *args: 1)
        ginflow.register_service("nothing", nothing)
        workflow = Workflow("nothing")
        workflow.add_task(Task("A", "one"))
        workflow.add_task(Task("B", "nothing"))
        workflow.add_dependency("A", "B")
        start = time.monotonic()
        report = ginflow.run(workflow, mode=mode, timeout=10.0)
        assert time.monotonic() - start < 5.0
        return report

    @pytest.mark.parametrize("mode", ["centralized", "simulated", "asyncio"])
    @pytest.mark.parametrize("returned", [None, {"a": 1}, [1, None]])
    def test_it_fails_the_task_on_every_runtime(self, mode, returned):
        report = self._run(mode, lambda *args: returned)
        assert report.succeeded is False
        assert report.timed_out is False
        assert report.tasks["A"].result == 1 and not report.tasks["A"].error
        assert report.tasks["B"].error and report.tasks["B"].result is None
        if mode != "centralized":  # the one runtime that keeps no per-task counters
            assert report.tasks["B"].failures == 1

    def test_an_awaited_result_is_checked_too(self):
        async def nothing(*args):
            return None

        report = self._run("asyncio", nothing)
        assert not report.succeeded and not report.timed_out
        assert report.tasks["B"].error and report.tasks["B"].failures == 1

    def test_an_async_service_on_the_virtual_clock_fails_its_task(self, monkeypatch):
        """Virtual time cannot await: the task fails with an error naming the
        service, and its coroutine is closed — no ``AtomError`` out of ``run``,
        no "coroutine ... was never awaited"."""
        errors = []
        complete = EnactmentEngine.complete_invocation

        def recording(self, host, outcome):
            errors.append(outcome.error)
            return complete(self, host, outcome)

        monkeypatch.setattr(EnactmentEngine, "complete_invocation", recording)

        async def later(*args):
            return 1

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = self._run("simulated", later)
            gc.collect()
        assert not report.succeeded and not report.timed_out
        assert report.tasks["B"].error and report.tasks["B"].attempts == report.tasks["B"].failures == 1
        assert errors == [None, "service 'nothing' returned an awaitable, which the virtual clock cannot await"]

    def test_the_failed_result_names_the_service_and_the_type(self):
        registry = ServiceRegistry()
        registry.register_function("nothing", lambda *args: None)
        prepared = PreparedInvocation(
            host=None,
            service=registry.resolve("nothing"),
            parameters=[],
            context=InvocationContext(task_name="A", duration=0.0),
        )
        outcome = prepared.invoke()
        assert outcome.failed and outcome.value is None
        assert outcome.error == "service 'nothing' returned NoneType, which has no HOCL atom form"


class TestTimeoutSurfacing:
    def _stuck_workflow(self, registry: ServiceRegistry) -> Workflow:
        async def stuck():  # never finishes within the timeout
            import asyncio

            await asyncio.sleep(30.0)

        registry.register_function("stuck", stuck)
        workflow = Workflow("stuck")
        workflow.add_task(Task("A", "stuck"))
        return workflow

    def test_asyncio_timeout_is_reported(self):
        registry = ServiceRegistry()
        workflow = self._stuck_workflow(registry)
        report = run_asyncio(
            workflow, GinFlowConfig(mode="asyncio", registry=registry), timeout=0.2
        )
        assert report.timed_out
        assert not report.succeeded

    def test_simulated_run_cut_off_at_its_horizon_is_reported(self):
        # 3 calls are still queued when the clock reaches 10 s; the run completes at 15.2 s
        report = run_simulation(diamond_workflow(3, 3, "simple"), GinFlowConfig(seed=1, max_virtual_time=10.0))
        assert report.timed_out and not report.succeeded
        assert report.makespan == 10.0

    def test_simulated_run_completing_before_its_horizon_is_not_timed_out(self):
        report = run_simulation(diamond_workflow(3, 3, "simple"), GinFlowConfig(seed=1, max_virtual_time=100.0))
        assert report.succeeded and not report.timed_out
        assert report.makespan < 100.0

    def test_simulated_stall_is_not_a_time_out(self):
        # a failed body task starves the merge: the queue drains, nothing was cut off
        workflow = diamond_workflow(2, 2, "simple")
        workflow.task("T_1_1").metadata["force_error"] = True
        report = run_simulation(workflow, GinFlowConfig(seed=1))
        assert not report.succeeded and not report.timed_out

    def test_cli_exits_1_on_a_cut_off_simulated_run(self, monkeypatch, capsys):
        base_config = commands._base_config
        monkeypatch.setattr(
            commands, "_base_config", lambda *args: base_config(*args).with_overrides(max_virtual_time=10.0)
        )
        assert cli.main(["run", "--scenario", "longchain:size=20", "--json"]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["timed_out"] is True and summary["succeeded"] is False

    def test_completed_run_is_not_marked_timed_out(self):
        workflow = Workflow("quick")
        workflow.add_task(Task("A", "anything"))
        report = run_asyncio(workflow, GinFlowConfig(mode="asyncio"), timeout=10.0)
        assert report.succeeded
        assert not report.timed_out
        assert report.summary()["timed_out"] is False


class TestReductionBound:
    @pytest.fixture(autouse=True)
    def low_bounds(self, monkeypatch):
        """The source of ``split_workflow(10)`` passes its result on in 10 reactions."""
        monkeypatch.setattr("repro.agents.core.MAX_REDUCTION_STEPS", 8)
        monkeypatch.setattr("repro.executors.centralized.MAX_STEPS", 20)

    @pytest.mark.parametrize(
        "mode, reducer", [("simulated", "agent 'source'"), ("asyncio", "agent 'source'"), ("centralized", "centralized")]
    )
    def test_a_cut_off_reduction_ends_the_run_with_a_named_error(self, mode, reducer):
        started = time.perf_counter()
        with pytest.raises(ReductionError, match=rf"^{reducer}: .* stopped after \d+ reactions, at its bound of (8|20),"):
            GinFlow().run(split_workflow(10), mode=mode, timeout=5.0)
        assert time.perf_counter() - started < 2.0

    def test_ginflow_run_prints_one_error_line_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "split.json"
        workflow_to_json(split_workflow(10), path)
        assert cli.main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: agent 'source': the invocation_succeeded reduction stopped after 8")
