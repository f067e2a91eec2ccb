"""Tests for the runtime layer: config, costs, reports, simulated / asyncio /
centralised execution, and cross-mode consistency."""

import pytest

from repro.cli import main
from repro.runtime import (
    CostModel,
    GinFlow,
    GinFlowConfig,
    RunReport,
    TaskOutcome,
    run_simulation,
)
from repro.runtime.config import BACKENDS
from repro.runtime.enactment import EnactmentEngine
from repro.services import FailureModel
from repro.workflow import (
    Task,
    Workflow,
    adaptive_diamond_workflow,
    diamond_workflow,
    montage_workflow,
    sequence_workflow,
)


class TestConfig:
    def test_defaults_valid(self):
        config = GinFlowConfig()
        assert config.mode == "simulated"
        assert config.broker == "activemq"

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            GinFlowConfig(mode="quantum")

    def test_invalid_executor(self):
        with pytest.raises(ValueError):
            GinFlowConfig(executor="ec2")

    def test_invalid_broker(self):
        with pytest.raises(ValueError):
            GinFlowConfig(broker="rabbitmq")

    def test_failures_require_persistent_broker(self):
        with pytest.raises(ValueError):
            GinFlowConfig(broker="activemq", failures=FailureModel(probability=0.5))
        GinFlowConfig(broker="kafka", failures=FailureModel(probability=0.5))

    @pytest.mark.parametrize("mode", ["asyncio", "centralized"])
    def test_failures_require_a_runtime_that_injects_them(self, mode):
        """Refused, not silently ignored: the run would read as if no crash had been drawn."""
        with pytest.raises(ValueError, match=f"the '{mode}' runtime cannot inject failures"):
            GinFlow().run(
                diamond_workflow(2, 2), mode=mode, broker="kafka", failures=FailureModel(probability=0.5, delay=15.0)
            )

    def test_cli_refuses_failures_on_asyncio_with_one_error_line(self, capsys):
        argv = [
            "run", "--scenario", "montage:size=30,seed=1", "--mode", "asyncio", "--broker", "kafka",
            "--failure-probability", "0.5", "--failure-delay", "15", "--json",
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the 'asyncio' runtime cannot inject failures: only a runtime that advertises "
            "supports_failures (e.g. 'simulated') crashes and recovers agents"
        ]

    def test_with_overrides_does_not_mutate_original(self):
        config = GinFlowConfig()
        other = config.with_overrides(broker="kafka", nodes=5)
        assert config.broker == "activemq"
        assert other.broker == "kafka" and other.nodes == 5

    def test_build_cluster_size(self):
        assert len(GinFlowConfig(nodes=7).build_cluster()) == 7

    def test_build_executor_types(self):
        assert GinFlowConfig(executor="ssh").build_executor().name == "ssh"
        assert GinFlowConfig(executor="mesos").build_executor().name == "mesos"

    def test_broker_profile_selection(self):
        assert GinFlowConfig(broker="kafka").broker_profile().persistent


class TestCostModel:
    def test_handling_cost_grows_with_units(self):
        costs = CostModel()
        assert costs.handling_cost(100) > costs.handling_cost(0)

    def test_broker_profile_lookup(self):
        costs = CostModel()
        assert costs.broker_profile("activemq").name == "activemq"
        with pytest.raises(ValueError):
            costs.broker_profile("zeromq")
        # exact names, the rule GinFlowConfig(broker=...) keeps too
        with pytest.raises(ValueError, match="unknown broker 'Kafka'"):
            costs.broker_profile("Kafka")

    def test_with_overrides(self):
        costs = CostModel().with_overrides(handling_base=1.0)
        assert costs.handling_base == 1.0

    def test_replay_cost_linear(self):
        costs = CostModel()
        assert costs.replay_cost(10) == pytest.approx(10 * costs.recovery_replay_cost_per_message)


class TestRunReport:
    def test_summary_fields(self):
        report = RunReport(makespan=10.0, tasks={"out": TaskOutcome("out", "completed", "x")}, exit_tasks=["out"])
        summary = report.summary()
        assert summary["succeeded"] is True
        assert summary["makespan"] == 10.0

    def test_format_summary_contains_key_lines(self):
        report = RunReport(deployment_time=1.0, execution_time=2.0, makespan=3.0)
        text = report.format_summary()
        assert "succeeded" in text and "makespan" in text

    def test_derived_facts_read_the_stored_ones(self):
        """``succeeded``, ``results``, ``reduction_reactions`` and
        ``adaptations_triggered`` are read off the rows and the fire counters."""
        rows = {"a": TaskOutcome("a", "completed", "x"), "b": TaskOutcome("b", "failed", error=True)}
        report = RunReport(
            tasks=rows, exit_tasks=["a"], rule_fires={"gw_call": 2, "trigger_adapt:s:b": 1},
            trigger_rules={"s": ["trigger_adapt:s:a", "trigger_adapt:s:b"], "t": ["trigger_adapt:t:a"]},
        )
        assert report.succeeded and report.results == {"a": "x"}
        assert report.reduction_reactions == 3 and report.adaptations_triggered == 1
        report.timed_out = True
        assert not report.succeeded and report.results == {"a": "x"}
        report.timed_out, report.exit_tasks = False, ["a", "b", "missing"]
        assert not report.succeeded and report.results == {"a": "x"}


class TestSimulatedRuntime:
    def test_diamond_completes(self):
        report = run_simulation(diamond_workflow(3, 3, duration=0.1), GinFlowConfig(nodes=10))
        assert report.succeeded
        assert report.results["merge"] == "merge-out"
        assert report.execution_time > 0
        assert report.deployment_time > 0
        assert len(report.tasks) == 11
        assert report.messages_published > 0

    def test_sequence_completes(self):
        report = run_simulation(sequence_workflow(5, duration=0.1), GinFlowConfig(nodes=5))
        assert report.succeeded
        assert report.results["S5"] == "S5-out"

    def test_deterministic_given_seed(self):
        config = GinFlowConfig(nodes=10, seed=42)
        first = run_simulation(diamond_workflow(4, 4, duration=0.1), config)
        second = run_simulation(diamond_workflow(4, 4, duration=0.1), config)
        assert first.execution_time == second.execution_time
        assert first.messages_published == second.messages_published

    def test_adaptive_diamond_triggers_adaptation(self):
        report = run_simulation(adaptive_diamond_workflow(3, 3), GinFlowConfig(nodes=10))
        assert report.succeeded
        assert report.adaptations_triggered == 1
        assert report.tasks["T_3_3"].error
        assert report.tasks["R_3_3"].result is not None

    def test_adaptive_costs_more_than_plain(self):
        config = GinFlowConfig(nodes=10)
        plain = run_simulation(diamond_workflow(4, 4, duration=0.1), config)
        adaptive = run_simulation(adaptive_diamond_workflow(4, 4, duration=0.1), config)
        assert adaptive.execution_time > plain.execution_time

    def test_kafka_slower_than_activemq(self):
        workflow = diamond_workflow(5, 5, duration=0.1)
        amq = run_simulation(workflow, GinFlowConfig(nodes=10, broker="activemq"))
        kafka = run_simulation(workflow, GinFlowConfig(nodes=10, broker="kafka"))
        assert kafka.execution_time > amq.execution_time

    def test_mesos_deployment_differs_from_ssh(self):
        workflow = diamond_workflow(5, 5, duration=0.1)
        ssh = run_simulation(workflow, GinFlowConfig(nodes=5, executor="ssh"))
        mesos = run_simulation(workflow, GinFlowConfig(nodes=5, executor="mesos"))
        assert ssh.deployment_time != mesos.deployment_time

    def test_failure_injection_recovers_and_completes(self):
        config = GinFlowConfig(
            nodes=25,
            executor="mesos",
            broker="kafka",
            failures=FailureModel(probability=0.5, delay=0.0),
            seed=7,
        )
        report = run_simulation(montage_workflow(duration_scale=0.2), config)
        assert report.succeeded
        assert report.failures_injected > 0
        assert report.recoveries == report.failures_injected
        baseline = run_simulation(
            montage_workflow(duration_scale=0.2),
            GinFlowConfig(nodes=25, executor="mesos", broker="kafka", seed=7),
        )
        assert report.execution_time > baseline.execution_time

    def test_failures_increase_with_probability(self):
        def run(probability):
            config = GinFlowConfig(
                nodes=25,
                executor="mesos",
                broker="kafka",
                failures=FailureModel(probability=probability, delay=0.0),
                seed=11,
            )
            return run_simulation(montage_workflow(duration_scale=0.1), config)

        low, high = run(0.2), run(0.8)
        assert high.failures_injected > low.failures_injected

    def test_status_updates_recorded(self):
        report = run_simulation(diamond_workflow(2, 2, duration=0.1), GinFlowConfig(nodes=5))
        assert report.status_updates > 0
        assert report.timeline  # state transitions were recorded

    def test_timeline_can_be_disabled(self):
        report = run_simulation(
            diamond_workflow(2, 2, duration=0.1), GinFlowConfig(nodes=5, collect_timeline=False)
        )
        assert report.timeline == []

    def test_duplicate_results_counter_zero_without_failures(self):
        report = run_simulation(diamond_workflow(3, 3, duration=0.1), GinFlowConfig(nodes=5))
        assert report.duplicate_results_ignored == 0


class TestKernelEntryAccounting:
    """One kernel entry per modelled hop, and nothing else:

    ``virtual_events == messages + stimuli + boots + invocations + crashes + recoveries``
    — a message is one entry (its arrival: the dispatcher's finish is computed
    at publish), a stimulus one (its actions dispatch when its handling cost
    elapsed), a boot, an invocation's end, a crash's restart delay and a
    recovery's replay one each.
    """

    @pytest.mark.parametrize(
        "workflow, options, expected",
        [
            # Fig. 13, the e2e benchmark's adapt-diamond-sim: 33,342 = 20,460 + 11,114 + 884 + 884
            (lambda: adaptive_diamond_workflow(21, 21, "full", "simple", duration=0.1), {}, 33_342),
            (lambda: montage_workflow(60, seed=1), {"costs": CostModel(broker_dispatchers=3)}, None),
            (
                lambda: montage_workflow(60, seed=1),
                {"broker": "kafka", "executor": "mesos", "failures": FailureModel(probability=0.5, delay=15.0)},
                None,
            ),
        ],
        ids=["adaptive-diamond-21x21", "montage-3-dispatchers", "montage-failures"],
    )
    def test_every_entry_is_a_modelled_hop(self, workflow, options, expected, monkeypatch):
        stimuli = []
        for name in ("boot", "deliver", "complete_invocation"):
            original = getattr(EnactmentEngine, name)

            def counted(self, host, *args, _original=original):
                stimuli.append(host.name)
                return _original(self, host, *args)

            monkeypatch.setattr(EnactmentEngine, name, counted)
        report = run_simulation(workflow(), GinFlowConfig(seed=1, **options))
        assert report.succeeded
        boots = len(report.tasks)
        invocations = sum(task.attempts for task in report.tasks.values())
        assert report.failures_injected == report.recoveries
        assert bool(report.failures_injected) == ("failures" in options)
        assert report.virtual_events == (
            report.messages_published + len(stimuli) + boots + invocations
            + report.failures_injected + report.recoveries
        )
        if expected is not None:
            assert (report.virtual_events, report.messages_published, len(stimuli), boots, invocations) == (
                expected, 20_460, 11_114, 884, 884
            )


class TestGinFlowFacade:
    def test_default_simulated_run(self):
        report = GinFlow().run(diamond_workflow(2, 2, duration=0.1), nodes=5)
        assert report.succeeded and report.mode == "simulated"

    def test_mode_override_per_run(self):
        ginflow = GinFlow()
        assert ginflow.run(diamond_workflow(2, 1), mode="centralized").mode == "centralized"
        assert ginflow.run(diamond_workflow(2, 1), mode="asyncio").mode == "asyncio"

    def test_the_threaded_runtime_is_gone(self, capsys):
        """One agent driver, two clocks: no third runtime, and no alias for it."""
        assert tuple(BACKENDS["runtime"]) == ("centralized", "simulated", "asyncio")
        with pytest.raises(ValueError, match="unknown runtime 'threaded'"):
            GinFlow().run(diamond_workflow(2, 1), mode="threaded")
        with pytest.raises(SystemExit) as exited:
            main(["run", "--scenario", "longchain:size=5", "--mode", "threaded"])
        assert exited.value.code == 2
        assert "invalid choice: 'threaded'" in capsys.readouterr().err

    def test_json_workflow_input(self):
        from repro.workflow import workflow_to_json

        text = workflow_to_json(diamond_workflow(2, 1))
        report = GinFlow().run(text, nodes=5)
        assert report.succeeded

    def test_register_service(self):
        ginflow = GinFlow()
        ginflow.register_service("triple", lambda value: value * 3)
        workflow = Workflow("w")
        workflow.add_task(Task("A", "triple", inputs=[5]))
        report = ginflow.run(workflow, mode="centralized")
        assert report.results["A"] == 15

    def test_centralized_adaptive(self):
        report = GinFlow().run(adaptive_diamond_workflow(2, 2), mode="centralized")
        assert report.succeeded
        assert report.adaptations_triggered == 1

    def test_all_modes_agree_on_results(self):
        workflow = diamond_workflow(3, 2)
        ginflow = GinFlow()
        results = {}
        for mode in ("simulated", "asyncio", "centralized"):
            report = ginflow.run(workflow, mode=mode, nodes=5)
            assert report.succeeded, mode
            results[mode] = report.results["merge"]
        assert len(set(results.values())) == 1

    def test_all_modes_agree_on_adaptive_results(self):
        workflow = adaptive_diamond_workflow(2, 2)
        ginflow = GinFlow()
        for mode in ("simulated", "asyncio", "centralized"):
            report = ginflow.run(workflow, mode=mode, nodes=5)
            assert report.succeeded, mode
            assert report.tasks["R_2_2"].result == "R_2_2-out", mode
