"""Run configuration of the GinFlow engine.

A :class:`GinFlowConfig` bundles every knob a run needs: execution mode,
executor, messaging middleware, cluster preset and size, failure injection,
cost model and seed.  The defaults reproduce the paper's common setup
(distributed simulation over the 25-node Grid'5000 preset, ActiveMQ, no
failures).

Every *named* choice (``mode``, ``executor``, ``broker``,
``cluster_preset``) is a row of :data:`BACKENDS`, the one table of the
built-in backends: the configuration validates against it, builds from it,
and the CLI's choices and ``ginflow backends`` listing read it.

The configuration is a frozen record (:class:`~repro.records.Frozen`): it
validates once on construction and can only be varied through
:meth:`GinFlowConfig.with_overrides`, which returns a new validated instance.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from repro.records import Frozen
from repro.services.faults import NO_FAILURES, FailureModel

from .costs import ACTIVEMQ_PROFILE, KAFKA_PROFILE, CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import NetworkModel
    from repro.cluster.node import Cluster
    from repro.obs import Observability
    from repro.services.service import ServiceRegistry

__all__ = ["GinFlowConfig", "BACKENDS", "backend"]

#: Every backend a run names: kind -> name -> (builder, description, flags),
#: in the order the CLI's choices and ``ginflow backends`` show them.  Every
#: builder is a ``"module:attr"`` string, imported by :func:`backend` when a
#: run on it is built, so listing the table loads none of them
#: (``repro.runtime.aio`` alone pulls in asyncio, ssl, socket): a runtime's
#: is its driver, an executor's its class, a cluster's its preset of the node
#: count and a broker's its default cost profile (a :class:`CostModel` may
#: replace it under the broker's name).  The flags are what the listing
#: prints (a cluster's numbers are held to what its preset builds by
#: ``tests/test_backends.py``); only a runtime's ``supports_failures`` is
#: ever checked.
BACKENDS: dict[str, dict[str, tuple[str, str, dict[str, Any]]]] = {
    "runtime": {
        "centralized": (
            "repro.runtime.ginflow:run_centralized",
            "single HOCL interpreter with synchronous service calls",
            {"distributed": False, "supports_failures": False, "wall_clock": True},
        ),
        "simulated": (
            "repro.runtime.simulation:run_simulation",
            "virtual-time distributed simulation over the modelled cluster",
            {"distributed": True, "virtual_time": True, "supports_failures": True, "deterministic": True},
        ),
        "asyncio": (
            "repro.runtime.aio:run_asyncio",
            "one asyncio event loop: every stimulus a callback, concurrency without threads",
            {"distributed": False, "wall_clock": True, "supports_failures": False, "single_threaded": True},
        ),
    },
    "executor": {
        "mesos": (
            "repro.executors.mesos:MesosExecutor",
            "offer-based Mesos provisioning (one agent per offered node per round)",
            {"deployment": "resource-offers", "scaling": "linearly-decreasing"},
        ),
        "ssh": (
            "repro.executors.ssh:SSHExecutor",
            "round-robin SSH provisioning over a preconfigured node list",
            {"deployment": "round-robin", "scaling": "slightly-increasing"},
        ),
    },
    "broker": {
        "activemq": (
            "repro.runtime.costs:ACTIVEMQ_PROFILE",
            "ActiveMQ 5.6-like JMS broker: fast, transient messaging",
            {"persistent": ACTIVEMQ_PROFILE.persistent},
        ),
        "kafka": (
            "repro.runtime.costs:KAFKA_PROFILE",
            "Kafka 0.8-like broker: persistent, replayable, ~4x ActiveMQ's cost",
            {"persistent": KAFKA_PROFILE.persistent},
        ),
    },
    "cluster": {
        "grid5000": (
            "repro.cluster.grid5000:grid5000_cluster",
            "the paper's Grid'5000 testbed: 25 nodes, 568 cores, 2 agents/core",
            {"max_nodes": 25, "total_cores": 568},
        ),
        "uniform": (
            "repro.cluster.presets:uniform_cluster",
            "homogeneous cluster: any node count, 8 cores per node, 2 agents/core",
            {"max_nodes": None, "cores_per_node": 8},
        ),
    },
}


def _row(kind: str, name: str) -> tuple[str, str, dict[str, Any]]:
    """The :data:`BACKENDS` row of the ``kind`` backend called exactly ``name``."""
    rows = BACKENDS[kind]
    if name not in rows:
        raise ValueError(f"unknown {kind} {name!r}; expected one of {tuple(rows)}")
    return rows[name]


def backend(kind: str, name: str) -> Any:
    """The builder of the ``kind`` backend called exactly ``name``, imported from its row."""
    module, _, attribute = _row(kind, name)[0].partition(":")
    return getattr(importlib.import_module(module), attribute)


class GinFlowConfig(Frozen):
    """Configuration of one GinFlow run (immutable; validated on creation).

    Attributes
    ----------
    mode:
        Execution mode (``"simulated"``, ``"asyncio"`` or ``"centralized"``).
    executor:
        Distributed executor name (``"ssh"`` or ``"mesos"``; distributed
        modes only).
    broker:
        Messaging middleware name (``"activemq"`` or ``"kafka"``).
    cluster_preset:
        Cluster preset name used when no explicit ``cluster`` is given
        (``"grid5000"`` by default).
    nodes:
        Number of cluster nodes to use (interpreted by the preset).
    cluster:
        Explicit cluster (overrides ``cluster_preset``/``nodes``).
    network:
        Network model (defaults to the Grid'5000 1 Gbps preset).
    failures:
        Failure-injection model (when enabled, requires a runtime whose
        row flags ``supports_failures`` and a persistent broker).
    costs:
        Cost model for the simulated runtime.
    seed:
        Root seed of every random stream of the run.
    registry:
        Service registry resolving task services.
    collect_timeline:
        Whether to keep the per-task event timeline in the report.
    max_virtual_time:
        Safety horizon of the simulation clock.
    obs:
        Optional :class:`~repro.obs.Observability` bundle (tracer +
        metrics registry); ``None`` — the default — is the zero-overhead
        off state.  When present, every runtime threads the tracer into
        its agents, reduction engines, broker and executor, which count
        into its metrics registry (``obs.metrics.snapshot()``).
    """

    __slots__ = (
        "mode", "executor", "broker", "cluster_preset", "nodes", "cluster", "network", "failures", "costs", "seed",
        "registry", "collect_timeline", "max_virtual_time", "obs",
    )
    mode: str
    executor: str
    broker: str
    cluster_preset: str
    nodes: int
    cluster: Cluster | None
    network: NetworkModel | None
    failures: FailureModel
    costs: CostModel
    seed: int
    registry: ServiceRegistry | None
    collect_timeline: bool
    max_virtual_time: float
    obs: Observability | None

    def __init__(
        self, mode: str = "simulated", executor: str = "ssh", broker: str = "activemq",
        cluster_preset: str = "grid5000", nodes: int = 25, cluster: Cluster | None = None,
        network: NetworkModel | None = None, failures: FailureModel = NO_FAILURES, costs: CostModel | None = None,
        seed: int = 1, registry: ServiceRegistry | None = None, collect_timeline: bool = True,
        max_virtual_time: float = 1_000_000.0, obs: Observability | None = None,
    ):
        self._init(
            mode, executor, broker, cluster_preset, nodes, cluster, network, failures,
            CostModel() if costs is None else costs, seed, registry, collect_timeline, max_virtual_time, obs,
        )
        self.validate()

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check the configuration coherence; raise ``ValueError`` otherwise."""
        runtime = _row("runtime", self.mode)
        _row("executor", self.executor)
        _row("broker", self.broker)
        if self.cluster is None:
            _row("cluster", self.cluster_preset)
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.failures.enabled and not runtime[2]["supports_failures"]:
            raise ValueError(
                f"the {self.mode!r} runtime cannot inject failures: only a runtime that "
                "advertises supports_failures (e.g. 'simulated') crashes and recovers agents"
            )
        if self.failures.enabled and not self.broker_profile().persistent:
            raise ValueError(
                "failure injection requires a persistent broker (e.g. Kafka): the recovery "
                "mechanism replays the messages logged by the broker (Section IV-B)"
            )

    # -------------------------------------------------------------- builders
    def build_cluster(self) -> Cluster:
        """The cluster to run on (explicit cluster, or the named preset)."""
        if self.cluster is not None:
            return self.cluster
        return backend("cluster", self.cluster_preset)(self.nodes)

    def build_network(self) -> NetworkModel:
        """The network model: explicit, or the Grid'5000 default."""
        from repro.cluster.grid5000 import grid5000_network

        return self.network if self.network is not None else grid5000_network()

    def build_executor(self) -> Any:
        """The distributed executor instance named by ``executor``."""
        return backend("executor", self.executor)()

    def broker_profile(self) -> Any:
        """The cost model's profile of the broker named by ``broker``."""
        return self.costs.broker_profile(self.broker)

    def build_local_broker(self) -> Any:
        """The in-process broker of the wall-clock runtimes, observability attached."""
        from repro.messaging.broker import InProcessBroker

        broker = InProcessBroker(self.broker_profile())
        broker.attach_observability(self.obs)
        return broker

    def build_registry(self) -> ServiceRegistry:
        """The service registry (a fresh default one when none was given)."""
        from repro.services.service import ServiceRegistry

        return self.registry if self.registry is not None else ServiceRegistry()

    # --------------------------------------------------------------- utility
    def with_overrides(self, **overrides: Any) -> "GinFlowConfig":
        """A validated copy of the configuration with some attributes replaced."""
        unknown = set(overrides) - set(self.__match_args__)
        if unknown:
            raise ValueError(f"unknown configuration field(s): {sorted(unknown)}")
        return self._replace(**overrides)  # the constructor validates the copy

