"""Tests for the runtime-agnostic enactment engine and its drivers.

Covers the coordinator query helpers and fail-fast completion (held to the
exit sweep it replaced, and flat in the number of exits), the report
parity guarantee (same workflow → identical task rows on both clocks of the
one agent driver, modulo timing/placement fields — and on every scenario
family), the run as the engine's clock, the real delivered-message
accounting of the in-process broker, and the asyncio runtime end-to-end.
"""

from __future__ import annotations

import asyncio
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st
from test_run_floor import measured_alone

from repro.agents import Coordinator
from repro.messaging import InProcessBroker, Message, MessageKind
from repro.runtime.costs import ACTIVEMQ_PROFILE
from repro.runtime import (
    AsyncioRun,
    GinFlow,
    GinFlowConfig,
    SimulatedRun,
    run_asyncio,
    run_simulation,
)
from repro.runtime.config import BACKENDS
from repro.scenarios import available_scenarios, build_scenario
from repro.services import ServiceRegistry
from repro.workflow import Task, Workflow, adaptive_diamond_workflow, diamond_workflow


def _status(state="completed", has_result=True, has_error=False):
    return {"state": state, "has_result": has_result, "has_error": has_error}


def _failing_exit_diamond(width=2, depth=2):
    workflow = diamond_workflow(width, depth)
    workflow.task("merge").metadata["force_error"] = True
    return workflow


class TestCoordinatorQueries:
    def test_progress_counts_results(self):
        coordinator = Coordinator(exit_tasks=["C"])
        assert coordinator.progress() == 0.0
        coordinator.record_status("A", _status())
        coordinator.record_status("B", _status("invoking", has_result=False))
        coordinator.record_status("C", _status("ready", has_result=False))
        assert coordinator.progress() == pytest.approx(1 / 3)

    def test_tasks_in_state(self):
        coordinator = Coordinator(exit_tasks=["C"])
        coordinator.record_status("A", _status("completed"))
        coordinator.record_status("B", _status("invoking", has_result=False))
        coordinator.record_status("C", _status("invoking", has_result=False))
        assert coordinator.tasks_in_state("completed") == ["A"]
        assert sorted(coordinator.tasks_in_state("invoking")) == ["B", "C"]
        assert coordinator.tasks_in_state("failed") == []

    def test_error_tasks(self):
        coordinator = Coordinator(exit_tasks=["C"])
        coordinator.record_status("A", _status())
        coordinator.record_status("B", _status("failed", has_result=False, has_error=True))
        assert coordinator.error_tasks() == ["B"]

    def test_task_state_unknown_before_updates(self):
        coordinator = Coordinator(exit_tasks=["C"])
        assert coordinator.task_state("C") == "unknown"


class TestCoordinatorFailFast:
    def test_completes_successfully_when_exits_hold_results(self):
        coordinator = Coordinator(exit_tasks=["X", "Y"])
        coordinator.record_status("X", _status(), time=1.0)
        assert not coordinator.completed
        coordinator.record_status("Y", _status(), time=2.0)
        assert coordinator.completed and coordinator.succeeded
        assert coordinator.completion_time == 2.0

    def test_terminal_exit_error_fails_fast(self):
        fired = []
        coordinator = Coordinator(exit_tasks=["X", "Y"], on_complete=fired.append)
        coordinator.record_status("X", _status("failed", has_result=False, has_error=True), time=3.0)
        assert coordinator.completed and not coordinator.succeeded
        assert coordinator.completion_time == 3.0
        assert fired == [3.0]

    def test_adaptable_exit_error_does_not_fail_fast(self):
        coordinator = Coordinator(exit_tasks=["X"], adaptable_tasks={"X"})
        coordinator.record_status("X", _status("failed", has_result=False, has_error=True))
        assert not coordinator.completed

    def test_completion_is_sticky(self):
        coordinator = Coordinator(exit_tasks=["X"])
        coordinator.record_status("X", _status(), time=1.0)
        coordinator.record_status("X", _status("failed", has_result=False, has_error=True), time=9.0)
        assert coordinator.completed and coordinator.succeeded
        assert coordinator.completion_time == 1.0


def _swept(coordinator):
    """The verdict of the sweep over every exit task that completion detection was
    before the coordinator kept its running sets: ``None`` while incomplete, else
    whether the run succeeded (a terminal exit error fails first)."""
    all_hold_results = True
    for task in coordinator.exit_tasks:
        status = coordinator.statuses.get(task)
        if status is not None and status.has_error and not status.has_result and task not in coordinator.adaptable_tasks:
            return False
        if status is None or not status.has_result:
            all_hold_results = False
    return True if all_hold_results else None


_TASKS = ["X", "Y", "A"]
_UPDATES = st.lists(
    st.tuples(
        st.sampled_from(_TASKS),
        st.fixed_dictionaries(
            {},
            optional={
                "state": st.sampled_from(["ready", "invoking", "completed", "failed"]),
                "has_result": st.booleans(),
                "has_error": st.booleans(),
            },
        ),
    ),
    max_size=12,
)


def _fan_out(leaves):
    """One entry task feeding ``leaves`` tasks, every one of them an exit."""
    workflow = Workflow("fan-out", [Task("root", "s", inputs=["x"], duration=1.0)])
    for index in range(leaves):
        workflow.add_task(f"leaf{index}", service="s", duration=1.0)
        workflow.add_dependency("root", f"leaf{index}")
    return workflow


class TestCompletionAgainstTheExitSweep:
    """Completion reads the updated exit and a running set of the exits holding a
    result instead of sweeping every exit on each STATUS update: the same outcome
    at the same update."""

    @given(updates=_UPDATES, exits=st.lists(st.sampled_from(_TASKS), min_size=1, max_size=4),
           adaptable=st.sets(st.sampled_from(_TASKS)))  # fmt: skip
    @example(  # an exit that loses its result (a rebuilt agent) holds none until it reports one again
        updates=[("X", {"has_result": True}), ("X", {"has_result": False}), ("Y", {"has_result": True})],
        exits=["X", "Y"], adaptable=set(),
    )
    @settings(max_examples=500, deadline=None)
    def test_same_outcome_at_the_same_update(self, updates, exits, adaptable):
        fired = []
        coordinator = Coordinator(exit_tasks=exits, on_complete=fired.append, adaptable_tasks=adaptable)
        expected = None
        for moment, (task, status) in enumerate(updates):
            coordinator.record_status(task, status, time=float(moment))
            if expected is None and (verdict := _swept(coordinator)) is not None:
                expected = (verdict, float(moment))
            done = (True, *expected) if expected else (False, False, None)
            assert (coordinator.completed, coordinator.succeeded, coordinator.completion_time) == done
        assert fired == ([expected[1]] if expected else [])

    def test_a_wide_fan_out_costs_per_task_what_a_narrow_one_does(self):
        """Every leaf is an exit.  While each update swept the exits, the 2000-leaf
        fan-out cost 2.2x the µs per task of the 500-leaf one on the virtual clock.
        Its calls per task, counted in a fresh interpreter, are now within 1.3x
        from 125 to 500 leaves."""
        narrow, wide = measured_alone("fan_out_calls_per_task", (125, 500), module="test_enactment")
        assert wide <= 1.3 * narrow, (narrow, wide)

    def test_the_exit_sweep_fails_the_fan_out_gate(self):
        """The gate above, on the coordinator that swept every exit on each update."""
        narrow, wide = measured_alone("fan_out_calls_per_task", (125, 500), True, module="test_enactment")
        assert wide > 1.3 * narrow, (narrow, wide)


def _sweeping_check_completion(self, task, entry, time):
    """The seeded mutant: completion decided by sweeping every exit (:func:`_swept`)."""
    if not self.completed and (verdict := _swept(self)) is not None:
        self._finish(time, succeeded=verdict)


def fan_out_calls_per_task(sizes, sweep=False):
    """The calls — of Python functions and of builtins — one simulated run of the
    fan-out makes per task, for each number of leaves in ``sizes``: host-independent,
    unlike its wall.  With ``sweep``, on the coordinator of :func:`_sweeping_check_completion`."""
    if sweep:
        Coordinator._check_completion = _sweeping_check_completion
    config = GinFlowConfig(cluster_preset="uniform", nodes=200)
    run_simulation(_fan_out(10), config)  # every rule body written, every name interned
    per_task = []
    for leaves in sizes:
        workflow, calls = _fan_out(leaves), [0]

        def count(_frame, event, _arg, calls=calls):
            calls[0] += event == "call" or event == "c_call"

        sys.setprofile(count)
        try:
            report = run_simulation(workflow, config)
        finally:
            sys.setprofile(None)
        assert report.succeeded and len(report.results) == leaves
        per_task.append(calls[0] / (leaves + 1))
    return per_task


class TestFailFastEndToEnd:
    """A workflow whose exit task holds ERROR completes as failed — it no
    longer blocks until timeout (asyncio) or drains the virtual event queue
    (simulated)."""

    def test_simulated_completes_as_failed(self):
        report = run_simulation(_failing_exit_diamond(), GinFlowConfig(nodes=5))
        assert not report.succeeded
        assert report.tasks["merge"].error

    def test_asyncio_returns_before_timeout(self):
        start = time.monotonic()
        report = run_asyncio(_failing_exit_diamond(), timeout=30.0)
        assert time.monotonic() - start < 10.0
        assert not report.succeeded and not report.timed_out
        assert report.tasks["merge"].error
        assert report.tasks["merge"].failures == 1


class TestReportParity:
    """Same workflow → identical task rows on every engine-backed runtime
    (modulo the timing and placement fields, which are runtime-specific)."""

    @staticmethod
    def _rows(report):
        return {
            name: (outcome.state, outcome.result, outcome.error, outcome.attempts, outcome.failures)
            for name, outcome in report.tasks.items()
        }

    @pytest.mark.parametrize("make_workflow", [
        lambda: diamond_workflow(3, 2),
        lambda: adaptive_diamond_workflow(2, 2),
    ], ids=["diamond", "adaptive-diamond"])
    def test_task_rows_identical_across_runtimes(self, make_workflow):
        simulated = run_simulation(make_workflow(), GinFlowConfig(nodes=5))
        asyncio_report = run_asyncio(make_workflow(), timeout=30.0)
        assert simulated.succeeded and asyncio_report.succeeded
        assert self._rows(simulated) == self._rows(asyncio_report)
        assert simulated.results == asyncio_report.results

    def test_service_level_failures_counted_in_every_runtime(self):
        # The adaptive diamond's trigger task fails its (single) invocation:
        # `failures` counts it identically on both clocks.
        for report in (
            run_simulation(adaptive_diamond_workflow(2, 2), GinFlowConfig(nodes=5)),
            run_asyncio(adaptive_diamond_workflow(2, 2), timeout=30.0),
        ):
            outcome = report.tasks["T_2_2"]
            assert outcome.error
            assert outcome.attempts == 1
            assert outcome.failures == 1


class TestDeliveredAccounting:
    def test_in_process_broker_counts_real_deliveries(self):
        broker = InProcessBroker(ACTIVEMQ_PROFILE)
        received = []
        broker.subscribe("t", received.append)
        broker.publish(Message(topic="t", kind=MessageKind.RESULT, sender="a", recipient="b"))
        broker.publish(Message(topic="nobody", kind=MessageKind.RESULT, sender="a", recipient="b"))
        assert broker.published_count() == 2
        assert broker.delivered_count() == 1  # no subscriber, no delivery
        assert len(received) == 1


class TestAsyncioRuntime:
    def test_registered_in_backends(self):
        assert "asyncio" in BACKENDS["runtime"]

    def test_diamond_completes(self):
        report = run_asyncio(diamond_workflow(3, 2), timeout=30.0)
        assert report.succeeded
        assert report.results["merge"] == "merge-out"
        assert report.mode == "asyncio"
        assert report.messages_delivered == report.messages_published > 0

    def test_adaptive_diamond_completes(self):
        report = run_asyncio(adaptive_diamond_workflow(2, 2), timeout=30.0)
        assert report.succeeded
        assert report.adaptations_triggered == 1
        assert report.tasks["T_2_2"].error

    def test_real_python_services(self):
        registry = ServiceRegistry()
        registry.register_function("square", lambda value: value * value)
        registry.register_function("sum2", lambda a, b: a + b)
        workflow = Workflow("math")
        workflow.add_task(Task("A", "square", inputs=[3]))
        workflow.add_task(Task("B", "square", inputs=[4]))
        workflow.add_task(Task("C", "sum2"))
        workflow.add_dependency("A", "C")
        workflow.add_dependency("B", "C")
        config = GinFlowConfig(mode="asyncio", registry=registry)
        report = run_asyncio(workflow, config, timeout=30.0)
        assert report.succeeded
        assert report.results["C"] == 25

    def test_kafka_broker_mode(self):
        config = GinFlowConfig(mode="asyncio", broker="kafka")
        report = run_asyncio(diamond_workflow(2, 2), config, timeout=30.0)
        assert report.succeeded

    def test_async_services_run_concurrently(self):
        registry = ServiceRegistry()

        async def slow_identity(value):
            await asyncio.sleep(0.3)
            return value

        registry.register_function("slow", slow_identity)
        registry.register_function("sum2", lambda a, b: a + b)
        workflow = Workflow("async-math")
        workflow.add_task(Task("A", "slow", inputs=[10]))
        workflow.add_task(Task("B", "slow", inputs=[32]))
        workflow.add_task(Task("C", "sum2"))
        workflow.add_dependency("A", "C")
        workflow.add_dependency("B", "C")
        start = time.monotonic()
        report = run_asyncio(workflow, GinFlowConfig(mode="asyncio", registry=registry), timeout=30.0)
        elapsed = time.monotonic() - start
        assert report.succeeded
        assert report.results["C"] == 42
        # both 0.3 s awaits overlapped on the one loop (serial would be ≥0.6)
        assert elapsed < 0.55

    def test_async_service_failure_becomes_task_error(self):
        registry = ServiceRegistry()

        async def broken():
            raise RuntimeError("boom")

        registry.register_function("broken", broken)
        workflow = Workflow("async-fail")
        workflow.add_task(Task("A", "broken"))
        report = run_asyncio(workflow, GinFlowConfig(mode="asyncio", registry=registry), timeout=30.0)
        assert not report.succeeded
        assert report.tasks["A"].error
        assert report.tasks["A"].failures == 1

    def test_facade_mode_dispatch(self):
        report = GinFlow().run(diamond_workflow(2, 2), mode="asyncio")
        assert report.succeeded and report.mode == "asyncio"

    def test_run_async_inside_event_loop(self):
        async def main():
            return await AsyncioRun(diamond_workflow(2, 1)).run_async(timeout=30.0)

        report = asyncio.run(main())
        assert report.succeeded

    def test_sweep_over_asyncio_runtime(self):
        from repro.experiments import ParameterGrid

        sweep = GinFlow().sweep(
            lambda: diamond_workflow(2, 1),
            ParameterGrid({"broker": ["activemq", "kafka"]}),
            mode="asyncio",
            name="asyncio-sweep",
        )
        assert sweep.succeeded
        assert len(sweep.rows) == 2
        assert {row["broker"] for row in sweep.rows} == {"activemq", "kafka"}


class TestCrossClockDifferential:
    """One driver, two clocks: on every scenario family the virtual and the real
    clock enact the same protocol — the same rows, results, rule firings,
    messages and reactions; only the timing fields are the clock's own."""

    @pytest.mark.parametrize("family", available_scenarios())
    def test_both_clocks_agree(self, family):
        spec = f"{family}:size=20,seed=3"
        simulated = run_simulation(build_scenario(spec), GinFlowConfig(nodes=5))
        real = run_asyncio(build_scenario(spec), timeout=60.0)
        assert simulated.succeeded and real.succeeded and not real.timed_out
        assert TestReportParity._rows(real) == TestReportParity._rows(simulated)
        assert real.results == simulated.results
        assert real.rule_fires == simulated.rule_fires
        assert real.messages_published == simulated.messages_published
        assert real.reduction_reactions == simulated.reduction_reactions


class TestTheRunIsTheClock:
    def test_virtual_stamps_are_the_kernels(self):
        run = SimulatedRun(diamond_workflow(2, 2), GinFlowConfig(nodes=3))
        report = run.run()
        assert run.engine.clock is run
        # every agent booted at the one virtual instant deployment ended
        boot = report.deployment_time + run.config.costs.agent_boot_time
        assert {outcome.started_at for outcome in report.tasks.values()} == {boot}
        assert max(outcome.finished_at for outcome in report.tasks.values()) <= report.makespan <= run.now()

    def test_real_stamps_are_monotonic_time(self):
        run = AsyncioRun(diamond_workflow(2, 2))
        before = time.monotonic()
        report = run.run(timeout=30.0)
        assert run.engine.clock is run
        stamps = [stamp for outcome in report.tasks.values() for stamp in (outcome.started_at, outcome.finished_at)]
        assert before <= min(stamps) <= max(stamps) <= run.now()
