"""Tests for the pluggable backend registry and the immutable configuration.

The end-to-end tests register third-party backends exclusively through the
public ``repro`` facade and run workflows on them — no file under
``src/repro/runtime/`` (or anywhere else in the engine) is modified.
"""

import pytest

from repro import (
    BackendError,
    BrokerProfile,
    FailureModel,
    GinFlow,
    GinFlowConfig,
    available_brokers,
    available_clusters,
    available_executors,
    available_runtimes,
    diamond_workflow,
    register_broker,
    register_cluster,
    register_executor,
)
from repro.records import FrozenError
from repro.runtime.backends import BackendRegistry, registry


@pytest.fixture()
def scratch_backend():
    """Unregister any backend the test registered, even on failure."""
    registered: list[tuple[str, str]] = []

    def _track(kind: str, name: str) -> None:
        registered.append((kind, name))

    yield _track
    for kind, name in registered:
        registry.unregister(kind, name)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(available_runtimes()) >= {"simulated", "asyncio", "centralized"}
        assert set(available_executors()) >= {"ssh", "mesos"}
        assert set(available_brokers()) >= {"activemq", "kafka"}
        assert set(available_clusters()) >= {"grid5000", "uniform"}

    def test_duplicate_registration_rejected(self):
        scratch = BackendRegistry()
        scratch.register("broker", "x", lambda config: None)
        with pytest.raises(BackendError):
            scratch.register("broker", "x", lambda config: None)
        # replace=True overrides instead
        scratch.register("broker", "x", lambda config: "second", replace=True)
        assert scratch.get("broker", "x").build(None) == "second"

    def test_unknown_name_lists_alternatives(self):
        scratch = BackendRegistry()
        scratch.register("runtime", "only", lambda *a, **k: None)
        with pytest.raises(BackendError, match="only"):
            scratch.get("runtime", "nope")

    def test_unknown_kind_rejected(self):
        scratch = BackendRegistry()
        with pytest.raises(BackendError):
            scratch.register("scheduler", "x", lambda: None)
        with pytest.raises(BackendError):
            scratch.names("scheduler")

    def test_decorator_form_and_capabilities(self):
        scratch = BackendRegistry()

        @scratch.register("cluster", "toy", capabilities={"max_nodes": 3})
        def build_toy(config):
            """A toy preset."""
            return "cluster"

        backend = scratch.get("cluster", "toy")
        assert backend.capability("max_nodes") == 3
        assert backend.capability("absent", "fallback") == "fallback"
        assert backend.description == "A toy preset."
        assert backend.build(None) == "cluster"
        assert scratch.has("cluster", "toy") and not scratch.has("cluster", "other")

    def test_derived_views_follow_registrations(self, scratch_backend):
        from repro.runtime import BROKERS

        assert "transient" not in BROKERS
        register_broker("transient", lambda config: BrokerProfile("transient", 0.001, 0.01, False))
        scratch_backend("broker", "transient")
        from repro.runtime import BROKERS as refreshed

        assert "transient" in refreshed
        assert "transient" in available_brokers()


class TestConfigValidation:
    def test_invalid_backend_names(self):
        with pytest.raises(ValueError):
            GinFlowConfig(mode="quantum")
        with pytest.raises(ValueError):
            GinFlowConfig(executor="ec2")
        with pytest.raises(ValueError):
            GinFlowConfig(broker="rabbitmq")
        with pytest.raises(ValueError):
            GinFlowConfig(cluster_preset="cloud")

    def test_failures_require_persistent_broker(self):
        with pytest.raises(ValueError, match="persistent"):
            GinFlowConfig(broker="activemq", failures=FailureModel(probability=0.5))
        GinFlowConfig(broker="kafka", failures=FailureModel(probability=0.5))

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


class TestThirdPartyBackends:
    def test_inmemory_persistent_broker_end_to_end(self, scratch_backend):
        """A broker registered via the public API runs workflows (and even
        failure injection, thanks to its persistence) on every runtime."""

        @register_broker(
            "inmemory",
            capabilities={"persistent": True},
            description="zero-cost persistent broker",
        )
        def _inmemory_profile(config) -> BrokerProfile:
            return BrokerProfile("inmemory", per_message_time=0.001, delivery_overhead=0.01, persistent=True)

        scratch_backend("broker", "inmemory")

        assert "inmemory" in available_brokers()
        config = GinFlowConfig(broker="inmemory", nodes=5)
        assert config.broker_profile().persistent

        simulated = GinFlow().run(diamond_workflow(3, 2, duration=0.1), broker="inmemory", nodes=5)
        assert simulated.succeeded and simulated.broker == "inmemory"

        real_time = GinFlow().run(diamond_workflow(2, 2), mode="asyncio", broker="inmemory")
        assert real_time.succeeded

        # persistence makes the recovery mechanism available
        injected = GinFlow().run(
            diamond_workflow(3, 2, duration=5.0),
            broker="inmemory",
            nodes=5,
            failures=FailureModel(probability=0.5, delay=0.0),
            seed=3,
        )
        assert injected.succeeded
        assert injected.recoveries == injected.failures_injected

    def test_third_party_cluster_preset(self, scratch_backend):
        from repro.cluster import uniform_cluster

        @register_cluster("tiny", capabilities={"max_nodes": 2})
        def _tiny(config):
            return uniform_cluster(min(config.nodes, 2), cores_per_node=4)

        scratch_backend("cluster", "tiny")

        report = GinFlow().run(diamond_workflow(2, 2, duration=0.1), cluster_preset="tiny", nodes=2)
        assert report.succeeded
        assert len(GinFlowConfig(cluster_preset="tiny", nodes=7).build_cluster()) == 2

    def test_third_party_executor(self, scratch_backend):
        from repro.executors import SSHExecutor

        class EagerSSH(SSHExecutor):
            name = "eager-ssh"

        @register_executor("eager-ssh")
        def _eager(config):
            return EagerSSH(connection_overhead=0.0, base_overhead=0.1)

        scratch_backend("executor", "eager-ssh")

        fast = GinFlow().run(diamond_workflow(2, 2, duration=0.1), executor="eager-ssh", nodes=5)
        slow = GinFlow().run(diamond_workflow(2, 2, duration=0.1), executor="ssh", nodes=5)
        assert fast.succeeded
        assert fast.deployment_time < slow.deployment_time

    def test_cluster_preset_can_supply_network_model(self, scratch_backend):
        from repro.cluster import NetworkModel, uniform_cluster

        slow_network = NetworkModel(latency=0.1, bandwidth=1_000_000.0, jitter=0.0)

        @register_cluster("slow-lan", capabilities={"network": slow_network})
        def _slow_lan(config):
            return uniform_cluster(config.nodes)

        scratch_backend("cluster", "slow-lan")

        assert GinFlowConfig(cluster_preset="slow-lan", nodes=2).build_network() is slow_network
        # explicit network still wins; other presets keep the Grid'5000 default
        explicit = NetworkModel(latency=0.2, bandwidth=1.0, jitter=0.0)
        assert GinFlowConfig(cluster_preset="slow-lan", nodes=2, network=explicit).build_network() is explicit
        assert GinFlowConfig(nodes=2).build_network().latency == 0.0005

    def test_uniform_preset_scales_past_grid5000(self):
        # the Grid'5000 preset caps at 25 nodes; the uniform preset does not
        with pytest.raises(ValueError):
            GinFlowConfig(nodes=40).build_cluster()
        cluster = GinFlowConfig(cluster_preset="uniform", nodes=40).build_cluster()
        assert len(cluster) == 40
