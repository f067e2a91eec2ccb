"""Tests for the table of backends and the immutable configuration."""

import importlib
import re

import pytest

from repro import (
    BrokerProfile,
    CostModel,
    FailureModel,
    GinFlow,
    GinFlowConfig,
    diamond_workflow,
)
from repro.records import FrozenError
from repro.runtime.config import BACKENDS, backend


class TestTable:
    def test_builtins_are_rows(self):
        assert {kind: tuple(rows) for kind, rows in BACKENDS.items()} == {
            "runtime": ("centralized", "simulated", "asyncio"),
            "executor": ("mesos", "ssh"),
            "broker": ("activemq", "kafka"),
            "cluster": ("grid5000", "uniform"),
        }

    def test_unknown_name_lists_alternatives(self):
        for kind, rows in BACKENDS.items():
            with pytest.raises(ValueError, match=re.escape(f"unknown {kind} 'nope'; expected one of {tuple(rows)}")):
                backend(kind, "nope")
            # exact names only: no case folding
            with pytest.raises(ValueError):
                backend(kind, next(iter(rows)).upper())

    def test_every_builder_is_a_module_attribute_string(self):
        for kind, rows in BACKENDS.items():
            for name, (builder, _description, _flags) in rows.items():
                module, colon, attribute = builder.partition(":")
                assert colon and module.startswith("repro.") and attribute.isidentifier(), (kind, name)
                assert backend(kind, name) is getattr(importlib.import_module(module), attribute)

    def test_the_listed_flags_are_the_builders(self):
        """The listing's numbers and persistence are what the builders build."""
        costs = CostModel()
        for name, (_builder, _description, flags) in BACKENDS["broker"].items():
            assert backend("broker", name) is costs.broker_profile(name)
            assert flags["persistent"] is costs.broker_profile(name).persistent
        grid5000 = BACKENDS["cluster"]["grid5000"][2]
        assert grid5000["total_cores"] == backend("cluster", "grid5000")(grid5000["max_nodes"]).total_cores
        with pytest.raises(ValueError):
            backend("cluster", "grid5000")(grid5000["max_nodes"] + 1)
        uniform = backend("cluster", "uniform")(3)
        assert {node.cores for node in uniform.nodes} == {BACKENDS["cluster"]["uniform"][2]["cores_per_node"]}

    @pytest.mark.parametrize("mode", ["simulated", "asyncio"])
    def test_a_cheap_persistent_broker_runs_on_every_runtime_with_a_broker(self, mode):
        # the centralised runtime has no broker (its report names ``none``)
        cheap = CostModel(kafka=BrokerProfile("kafka", per_message_time=0.001, delivery_overhead=0.01, persistent=True))
        report = GinFlow().run(diamond_workflow(2, 2), mode=mode, broker="kafka", costs=cheap, nodes=5)
        assert report.succeeded and report.broker == "kafka"


class TestConfigValidation:
    def test_invalid_backend_names(self):
        """An unknown name of each kind is refused, naming the choices."""
        with pytest.raises(ValueError, match=r"unknown runtime 'quantum'; expected one of \('centralized', 'simulated', 'asyncio'\)"):
            GinFlowConfig(mode="quantum")
        with pytest.raises(ValueError, match=r"unknown executor 'ec2'; expected one of \('mesos', 'ssh'\)"):
            GinFlowConfig(executor="ec2")
        with pytest.raises(ValueError, match=r"unknown broker 'rabbitmq'; expected one of \('activemq', 'kafka'\)"):
            GinFlowConfig(broker="rabbitmq")
        with pytest.raises(ValueError, match=r"unknown cluster 'cloud'; expected one of \('grid5000', 'uniform'\)"):
            GinFlowConfig(cluster_preset="cloud")

    def test_failures_require_persistent_broker(self):
        with pytest.raises(ValueError, match="persistent"):
            GinFlowConfig(broker="activemq", failures=FailureModel(probability=0.5))
        GinFlowConfig(broker="kafka", failures=FailureModel(probability=0.5))
        # a persistent profile, however cheap, lets the run recover every injected crash
        cheap = CostModel(kafka=BrokerProfile("kafka", per_message_time=0.001, delivery_overhead=0.01, persistent=True))
        injected = GinFlow().run(
            diamond_workflow(3, 2, duration=5.0),
            broker="kafka",
            costs=cheap,
            nodes=5,
            failures=FailureModel(probability=0.5, delay=0.0),
            seed=3,
        )
        assert injected.succeeded and injected.broker == "kafka"
        assert injected.recoveries == injected.failures_injected > 0

    def test_config_is_immutable(self):
        config = GinFlowConfig()
        with pytest.raises(FrozenError):
            config.nodes = 3
        with pytest.raises(FrozenError):
            config.broker = "kafka"

    def test_with_overrides_validates(self):
        config = GinFlowConfig()
        with pytest.raises(ValueError):
            config.with_overrides(nodes=0)
        with pytest.raises(ValueError):
            config.with_overrides(broker="rabbitmq")
        with pytest.raises(ValueError, match="unknown configuration field"):
            config.with_overrides(nodez=5)

    def test_with_overrides_returns_new_instance(self):
        config = GinFlowConfig()
        other = config.with_overrides(broker="kafka")
        assert config.broker == "activemq" and other.broker == "kafka"

    def test_registering_services_does_not_mutate_config(self):
        ginflow = GinFlow()
        assert ginflow.config.registry is None
        ginflow.register_service("noop", lambda: None)
        # the config stays untouched; the services live in an explicit slot
        assert ginflow.config.registry is None
        assert ginflow.registry.knows("noop")

    def test_explicit_registry_wins_over_config_registry(self):
        from repro import ServiceRegistry
        from repro.workflow import Task, Workflow

        config_registry = ServiceRegistry()
        explicit = ServiceRegistry()
        ginflow = GinFlow(GinFlowConfig(registry=config_registry), registry=explicit)
        ginflow.register_service("double", lambda value: value * 2)
        assert explicit.knows("double") and not config_registry.knows("double")

        workflow = Workflow("w")
        workflow.add_task(Task("A", "double", inputs=[21]))
        report = ginflow.run(workflow, mode="centralized")
        assert report.results["A"] == 42

    def test_builtin_loading_is_thread_safe(self):
        import subprocess
        import sys

        # fresh interpreter: first-ever backend lookups race across threads
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "import threading\n"
            "errors = []\n"
            "def build():\n"
            "    try:\n"
            "        from repro.runtime.config import GinFlowConfig\n"
            "        GinFlowConfig()\n"
            "    except Exception as exc:\n"
            "        errors.append(exc)\n"
            "threads = [threading.Thread(target=build) for _ in range(8)]\n"
            "[t.start() for t in threads]; [t.join() for t in threads]\n"
            "assert not errors, errors\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd="."
        )
        assert result.returncode == 0, result.stderr


class TestClusterPresets:
    def test_explicit_network_wins_over_the_grid5000_default(self):
        from repro.cluster import NetworkModel

        explicit = NetworkModel(latency=0.2, bandwidth=1.0, jitter=0.0)
        assert GinFlowConfig(cluster_preset="uniform", nodes=2, network=explicit).build_network() is explicit
        assert GinFlowConfig(nodes=2).build_network().latency == 0.0005
        assert GinFlowConfig(cluster_preset="uniform", nodes=2).build_network().latency == 0.0005

    def test_uniform_preset_scales_past_grid5000(self):
        # the Grid'5000 preset caps at 25 nodes; the uniform preset does not
        with pytest.raises(ValueError):
            GinFlowConfig(nodes=40).build_cluster()
        cluster = GinFlowConfig(cluster_preset="uniform", nodes=40).build_cluster()
        assert len(cluster) == 40
