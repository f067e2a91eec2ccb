"""End-to-end integration tests across the whole stack.

These tests exercise the scenarios the paper walks through: the Fig. 5-8
adaptive workflow, the diamond workloads, the Montage resilience run, and
consistency between the three execution modes.
"""

import pytest

from repro.runtime import GinFlow, GinFlowConfig, run_simulation
from repro.services import FailureModel, ServiceRegistry
from repro.workflow import (
    AdaptationSpec,
    Task,
    Workflow,
    adaptive_diamond_workflow,
    diamond_workflow,
    montage_workflow,
)


def fig5_workflow(force_error=True):
    """The paper's running example (Fig. 5/6): T2 replaced by T2p on failure."""
    workflow = Workflow("fig5")
    workflow.add_task(Task("T1", "s1", inputs=["input"], duration=0.05))
    workflow.add_task(Task("T2", "s2", duration=0.05, metadata={"force_error": force_error}))
    workflow.add_task(Task("T3", "s3", duration=0.05))
    workflow.add_task(Task("T4", "s4", duration=0.05))
    workflow.add_dependency("T1", "T2")
    workflow.add_dependency("T1", "T3")
    workflow.add_dependency("T2", "T4")
    workflow.add_dependency("T3", "T4")
    replacement = Workflow("alt")
    replacement.add_task(Task("T2p", "s2-alt", duration=0.05))
    workflow.add_adaptation(
        AdaptationSpec("replace-T2", ["T2"], replacement, entry_sources={"T2p": ["T1"]})
    )
    return workflow


class TestFig5Scenario:
    @pytest.mark.parametrize("mode", ["simulated", "asyncio", "centralized"])
    def test_failure_triggers_replacement(self, mode):
        report = GinFlow().run(fig5_workflow(force_error=True), mode=mode, nodes=5)
        assert report.succeeded
        assert report.tasks["T2"].error
        assert report.tasks["T2p"].result == "T2p-out"
        assert report.tasks["T4"].result == "T4-out"

    @pytest.mark.parametrize("mode", ["simulated", "asyncio", "centralized"])
    def test_no_failure_means_no_adaptation(self, mode):
        report = GinFlow().run(fig5_workflow(force_error=False), mode=mode, nodes=5)
        assert report.succeeded
        assert not report.tasks["T2"].error
        # the replacement task never runs
        assert report.tasks["T2p"].result is None
        assert report.adaptations_triggered == 0

    def test_final_task_receives_both_branches(self):
        registry = ServiceRegistry()
        received = {}

        def sink(*parameters):
            received["params"] = parameters
            return "sink-done"

        registry.register_function("s4", sink)
        workflow = fig5_workflow(force_error=True)
        report = GinFlow(registry=registry).run(workflow, mode="centralized")
        assert report.succeeded
        # T4 received exactly two inputs: T3's and the replacement's
        assert len(received["params"]) == 2


class TestDiamondScenarios:
    def test_all_adaptation_scenarios_complete(self):
        for body, replacement in (("simple", "simple"), ("simple", "full"), ("full", "simple")):
            workflow = adaptive_diamond_workflow(3, 3, body, replacement, duration=0.05)
            report = run_simulation(workflow, GinFlowConfig(nodes=10, collect_timeline=False))
            assert report.succeeded, (body, replacement)
            assert report.adaptations_triggered == 1

    def test_larger_diamonds_take_longer(self):
        config = GinFlowConfig(nodes=25, collect_timeline=False)
        small = run_simulation(diamond_workflow(4, 4, duration=0.1), config)
        large = run_simulation(diamond_workflow(8, 8, duration=0.1), config)
        assert large.execution_time > small.execution_time

    def test_full_connectivity_costs_more(self):
        config = GinFlowConfig(nodes=25, collect_timeline=False)
        simple = run_simulation(diamond_workflow(6, 6, "simple", duration=0.1), config)
        full = run_simulation(diamond_workflow(6, 6, "full", duration=0.1), config)
        assert full.execution_time > simple.execution_time
        assert full.messages_published > simple.messages_published

    def test_1000_service_scale(self):
        # the paper deploys up to 1000 services on the 25-node testbed
        workflow = diamond_workflow(22, 22, "simple", duration=0.05)
        assert len(workflow) == 486
        report = run_simulation(workflow, GinFlowConfig(nodes=25, collect_timeline=False))
        assert report.succeeded


class TestMontageResilience:
    def test_baseline_close_to_paper(self):
        config = GinFlowConfig(nodes=25, executor="mesos", broker="kafka", collect_timeline=False)
        report = run_simulation(montage_workflow(), config)
        assert report.succeeded
        # paper baseline: 484 s average; accept the calibration tolerance
        assert 440 <= report.execution_time <= 560

    def test_heavy_failures_still_complete(self):
        config = GinFlowConfig(
            nodes=25,
            executor="mesos",
            broker="kafka",
            failures=FailureModel(probability=0.8, delay=0.0),
            seed=5,
            collect_timeline=False,
        )
        report = run_simulation(montage_workflow(duration_scale=0.2), config)
        assert report.succeeded
        assert report.failures_injected > 50
        assert report.recoveries == report.failures_injected
        assert report.duplicate_results_ignored >= 0

    def test_late_failures_cost_more_than_early_failures(self):
        def run(delay):
            config = GinFlowConfig(
                nodes=25,
                executor="mesos",
                broker="kafka",
                failures=FailureModel(probability=0.5, delay=delay),
                seed=13,
                collect_timeline=False,
            )
            return run_simulation(montage_workflow(), config)

        early, late = run(0.0), run(100.0)
        assert early.succeeded and late.succeeded
        # late (T=100) failures lose 100 s of work each: more expensive per failure
        early_overhead_per_failure = max(early.execution_time - 500, 1) / max(early.failures_injected, 1)
        late_overhead_per_failure = max(late.execution_time - 500, 1) / max(late.failures_injected, 1)
        assert late_overhead_per_failure > early_overhead_per_failure


class TestCrossModeConsistency:
    def test_task_results_identical_across_modes(self):
        workflow = diamond_workflow(3, 3)
        reports = {
            mode: GinFlow().run(workflow, mode=mode, nodes=5)
            for mode in ("simulated", "asyncio", "centralized")
        }
        reference = {name: outcome.result for name, outcome in reports["centralized"].tasks.items()}
        for mode, report in reports.items():
            for name, outcome in report.tasks.items():
                assert outcome.result == reference[name], (mode, name)

    def test_adaptive_error_tasks_identical_across_modes(self):
        workflow = adaptive_diamond_workflow(2, 2)
        for mode in ("simulated", "asyncio", "centralized"):
            report = GinFlow().run(workflow, mode=mode, nodes=5)
            assert report.tasks["T_2_2"].error, mode
            assert report.tasks["R_1_1"].result is not None, mode
