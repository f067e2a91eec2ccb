"""Properties of the asyncio driver: an agent is a FIFO item, not a Task and a Queue.

* every agent boots before it sees a message and sees its stimuli in arrival
  order (the driver's FIFO, drained per loop turn, is every agent's inbox);
  the reports agree with the simulated run;
* no Task per agent or per synchronous invocation — only an awaiting service
  becomes one;
* the drain yields the loop: a caller's coroutine keeps running beside a long
  synchronous chain, and the timeout cuts one at once;
* a run that is over leaves nothing behind on a caller's loop, its FIFO
  included;
* a stimulus that raises ends the run at once with that exception, and no
  queued stimulus runs after it;
* the report never becomes the result of the main task (``asyncio.run`` would
  format its repr);
* every reduction runs on the loop's own thread.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import time
import warnings
from collections import defaultdict

import pytest

from repro.hocl import ReductionEngine
from repro.messaging import InProcessBroker
from repro.runtime import GinFlowConfig, run_asyncio, run_simulation
from repro.runtime.aio import AsyncioRun
from repro.runtime.enactment import EnactmentEngine
from repro.runtime.results import TaskOutcome
from repro.scenarios import build_scenario
from repro.services import ServiceRegistry
from repro.workflow import Task, Workflow, adaptive_diamond_workflow, diamond_workflow

WORKFLOWS = {
    "chain": lambda: build_scenario("longchain:size=60"),
    "diamond": lambda: diamond_workflow(4, 3),
    "adaptive-diamond": lambda: adaptive_diamond_workflow(2, 2),
}


@pytest.fixture
def stimuli(monkeypatch):
    """Per agent, the stimuli the engine handled: ``boot``, then each ``(kind, sender)``."""
    seen: dict[str, list] = defaultdict(list)
    boot, deliver, complete = EnactmentEngine.boot, EnactmentEngine.deliver, EnactmentEngine.complete_invocation

    def recording_boot(self, host):
        seen[host.name].append("boot")
        return boot(self, host)

    def recording_deliver(self, host, message):
        seen[host.name].append((message.kind, message.sender))
        return deliver(self, host, message)

    def recording_complete(self, host, outcome):
        seen[host.name].append(("invoked", host.name))
        return complete(self, host, outcome)

    monkeypatch.setattr(EnactmentEngine, "boot", recording_boot)
    monkeypatch.setattr(EnactmentEngine, "deliver", recording_deliver)
    monkeypatch.setattr(EnactmentEngine, "complete_invocation", recording_complete)
    return seen


def rows(report):
    return {
        name: (outcome.state, outcome.result, outcome.error, outcome.attempts, outcome.failures)
        for name, outcome in report.tasks.items()
    }


class TestStimulusOrder:
    @pytest.mark.parametrize("name", WORKFLOWS)
    def test_boot_first_and_reports_agree_with_the_simulated_run(self, name, stimuli):
        report = run_asyncio(WORKFLOWS[name](), timeout=30.0)
        on_asyncio = {agent: list(sequence) for agent, sequence in stimuli.items()}
        stimuli.clear()
        simulated = run_simulation(WORKFLOWS[name](), GinFlowConfig(nodes=5))
        assert report.succeeded and simulated.succeeded and not report.timed_out
        assert sorted(on_asyncio) == sorted(report.tasks)
        assert all(sequence[0] == "boot" and sequence.count("boot") == 1 for sequence in on_asyncio.values())
        if name == "chain":
            # fan-in 1: arrival order is the same on any fair schedule
            assert on_asyncio == stimuli
        assert rows(report) == rows(simulated)
        assert report.results == simulated.results
        assert report.messages_published == simulated.messages_published
        assert report.rule_fires == simulated.rule_fires


class TestNoTaskPerAgent:
    def test_a_synchronous_run_holds_the_main_task_and_at_most_a_waiter(self):
        counts = []
        registry = ServiceRegistry()

        def service(*parameters):
            counts.append(len(asyncio.all_tasks()))
            return "out"

        workflow = build_scenario("longchain:size=200")
        for task in workflow.tasks.values():
            task.service = "probe"
        registry.register_function("probe", service)
        report = run_asyncio(workflow, GinFlowConfig(mode="asyncio", registry=registry), timeout=30.0)
        assert report.succeeded and len(counts) == 200
        assert 1 <= max(counts) <= 2, max(counts)

    def test_three_awaiting_services_are_three_tasks(self):
        counts = []
        registry = ServiceRegistry()

        async def slow(*parameters):
            await asyncio.sleep(0.1)
            counts.append(len(asyncio.all_tasks()))
            return "out"

        def baseline(*parameters):
            counts.append(len(asyncio.all_tasks()))
            return "out"

        registry.register_function("slow", slow)
        registry.register_function("baseline", baseline)
        workflow = Workflow("three-awaits")
        workflow.add_task(Task("first", "baseline", inputs=[1]))
        for name in "abc":
            workflow.add_task(Task(name, "slow"))
            workflow.add_dependency("first", name)
        report = run_asyncio(workflow, GinFlowConfig(mode="asyncio", registry=registry), timeout=30.0)
        assert report.succeeded
        # the three sleeps overlapped: the first to wake still sees all three
        assert counts[1] == counts[0] + 3, counts


class TestTheDrainYieldsTheLoop:
    def test_a_caller_coroutine_keeps_ticking_beside_a_long_chain(self, stimuli):
        async def main():
            ticks, enacted = [], []

            async def ticker():
                while not enacted:
                    ticks.append(sum(map(len, stimuli.values())))
                    await asyncio.sleep(0)

            ticking = asyncio.ensure_future(ticker())
            enacted.append(await AsyncioRun(build_scenario("longchain:size=3000")).run_async(timeout=60.0))
            await ticking
            return enacted[0], ticks

        report, ticks = asyncio.run(main())
        assert report.succeeded
        # the ticker saw the run at 30 stages or more of its 8999 stimuli
        during = sorted(set(ticks) - {0, 8999})
        assert len(during) >= 30 and during[-1] - during[0] > 8000, during

    def test_the_timeout_cuts_a_long_synchronous_chain(self):
        run = AsyncioRun(build_scenario("longchain:size=20000"))
        report = run.run(timeout=0.05)
        assert report.timed_out and not report.succeeded
        assert report.execution_time < 0.5, report.execution_time
        assert not run._fifo


class TestNothingOutlivesTheRun:
    def test_a_cut_run_leaves_no_timer_and_publishes_nothing_more(self, monkeypatch):
        brokers = []
        original = InProcessBroker.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            brokers.append(self)

        monkeypatch.setattr(InProcessBroker, "__init__", init)
        registry = ServiceRegistry()

        async def slow(*parameters):
            await asyncio.sleep(0.2)
            return "out"

        registry.register_function("slow", slow)
        workflow = diamond_workflow(3, 6)
        for task in workflow.tasks.values():
            task.service = "slow"
        # every service takes 0.2 s: the run is cut in the middle of the third row
        config = GinFlowConfig(mode="asyncio", registry=registry)

        async def main():
            loop = asyncio.get_running_loop()
            report = await AsyncioRun(workflow, config).run_async(timeout=0.5)
            (broker,) = brokers
            published = broker.published_count()
            assert report.timed_out and not report.succeeded and published > 0
            for _ in range(10):
                await asyncio.sleep(0)
            # cut with services still sleeping: their Tasks are gone, and no timer
            # of theirs (nor the timeout's) is left live
            assert asyncio.all_tasks() == {asyncio.current_task()}
            assert all(handle.cancelled() for handle in loop._scheduled)
            await asyncio.sleep(0.3)  # those invocations would have ended by now
            assert broker.published_count() == published

        asyncio.run(main())


    def test_an_async_service_cut_before_its_first_step_is_closed_not_leaked(self):
        """The Task is the service's own coroutine, started at dispatch: a run cut
        at once leaves it neither pending nor unawaited (no "coroutine ... was
        never awaited")."""
        registry = ServiceRegistry()

        async def service(*parameters):
            return "out"

        registry.register_function("async-service", service)
        workflow = Workflow("cut-at-once")
        workflow.add_task(Task("A", "async-service", inputs=[1]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_asyncio(workflow, GinFlowConfig(mode="asyncio", registry=registry), timeout=0.0)
            gc.collect()
        assert report.timed_out and report.tasks["A"].attempts == 1
        assert not [str(warning.message) for warning in caught if "never awaited" in str(warning.message)]


class TestRaisingStimulus:
    @pytest.fixture
    def broken_deliver(self, monkeypatch):
        """Every ``deliver`` seen, in order; the one to ``T_2_2`` raises."""
        original, delivered = EnactmentEngine.deliver, []

        def deliver(self, host, message):
            delivered.append(host.name)
            if host.name == "T_2_2":
                raise RuntimeError("injected into deliver")
            return original(self, host, message)

        monkeypatch.setattr(EnactmentEngine, "deliver", deliver)
        return delivered

    def test_run_raises_it_at_once(self, broken_deliver):
        start = time.monotonic()
        run = AsyncioRun(diamond_workflow(3, 3))
        with pytest.raises(RuntimeError, match="injected into deliver"):
            run.run(timeout=30.0)
        assert time.monotonic() - start < 2.0
        # deliveries to the other branches were queued beside T_2_2's: none ran after it raised
        assert broken_deliver[-1] == "T_2_2", broken_deliver
        assert not run._fifo

    def test_run_async_raises_it_inside_a_running_loop(self, broken_deliver):
        async def main():
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="injected into deliver"):
                await AsyncioRun(diamond_workflow(3, 3)).run_async(timeout=30.0)
            assert time.monotonic() - start < 2.0
            await asyncio.sleep(0)
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(main())

    def test_a_raising_boot_ends_the_run_too(self, monkeypatch):
        def boot(self, host):
            raise RuntimeError("injected into boot")

        monkeypatch.setattr(EnactmentEngine, "boot", boot)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="injected into boot"):
            run_asyncio(diamond_workflow(2, 2), timeout=30.0)
        assert time.monotonic() - start < 2.0

    def test_a_raising_service_still_only_fails_its_task(self):
        registry = ServiceRegistry()

        def broken(*parameters):
            raise RuntimeError("service exploded")

        registry.register_function("broken", broken)
        workflow = Workflow("service-fails")
        workflow.add_task(Task("A", "broken"))
        report = run_asyncio(workflow, GinFlowConfig(mode="asyncio", registry=registry), timeout=30.0)
        assert not report.succeeded and not report.timed_out
        assert report.tasks["A"].error and report.tasks["A"].failures == 1


class TestReportStaysOffTheMainTask:
    def test_no_task_row_is_ever_formatted(self, monkeypatch):
        formatted = []
        monkeypatch.setattr(TaskOutcome, "__repr__", lambda self: formatted.append(self.task) or "TaskOutcome(...)")
        report = run_asyncio(build_scenario("longchain:size=200"), timeout=30.0)
        assert report.succeeded and len(report.tasks) == 200
        assert formatted == []


class TestNoThreads:
    def test_every_reduction_runs_on_the_loop_thread(self, monkeypatch):
        threads = []
        original = ReductionEngine.reduce

        def reduce(self, solution):
            threads.append(threading.current_thread())
            return original(self, solution)

        monkeypatch.setattr(ReductionEngine, "reduce", reduce)
        assert run_asyncio(diamond_workflow(3, 3), timeout=30.0).succeeded
        assert threads and set(threads) == {threading.main_thread()}
