"""Run configuration of the GinFlow engine.

A :class:`GinFlowConfig` bundles every knob a run needs: execution mode,
executor, messaging middleware, cluster preset and size, failure injection,
cost model and seed.  The defaults reproduce the paper's common setup
(distributed simulation over the 25-node Grid'5000 preset, ActiveMQ, no
failures).

Every *named* choice (``mode``, ``executor``, ``broker``,
``cluster_preset``) resolves through the pluggable backend registry
(:mod:`repro.runtime.backends`): registering a new backend through the
public API makes it immediately valid here, in :meth:`GinFlow.run
<repro.runtime.ginflow.GinFlow.run>` and in the CLI, without editing any
engine file.  The historical ``EXECUTION_MODES`` / ``EXECUTORS`` /
``BROKERS`` tuples are kept as *derived views* of the registry (module-level
``__getattr__``), so they can never drift from it.

The configuration is a frozen dataclass: it validates once on construction
and can only be varied through :meth:`GinFlowConfig.with_overrides`, which
returns a new validated instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.cluster.network import NetworkModel
from repro.cluster.node import Cluster
from repro.obs import Observability
from repro.services import NO_FAILURES, FailureModel, ServiceRegistry

from . import backends
from .costs import CostModel

__all__ = ["GinFlowConfig", "EXECUTION_MODES", "EXECUTORS", "BROKERS"]


@dataclass(frozen=True)
class GinFlowConfig:
    """Configuration of one GinFlow run (immutable; validated on creation).

    Attributes
    ----------
    mode:
        Execution mode, resolved against the runtime backends
        (``"simulated"``, ``"threaded"``, ``"centralized"``, or any
        registered third-party runtime).
    executor:
        Distributed executor name (``"ssh"``, ``"mesos"``, ...;
        distributed modes only).
    broker:
        Messaging middleware name (``"activemq"``, ``"kafka"``, ...).
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
        Failure-injection model (requires a persistent broker when enabled).
    costs:
        Cost model for the simulated runtime.
    seed:
        Root seed of every random stream of the run.
    registry:
        Service registry resolving task services.
    threaded_time_scale:
        In threaded mode, nominal task durations are multiplied by this
        factor before sleeping (0 disables sleeping entirely).
    collect_timeline:
        Whether to keep the per-task event timeline in the report.
    max_virtual_time:
        Safety horizon of the simulation clock.
    obs:
        Optional :class:`~repro.obs.Observability` bundle (tracer +
        metrics registry); ``None`` — the default — is the zero-overhead
        off state.  When present, every runtime threads the tracer into
        its agents, reduction engines, broker and executor, and the
        metrics snapshot lands in ``RunReport.extra["metrics"]``.
    """

    mode: str = "simulated"
    executor: str = "ssh"
    broker: str = "activemq"
    cluster_preset: str = "grid5000"
    nodes: int = 25
    cluster: Cluster | None = None
    network: NetworkModel | None = None
    failures: FailureModel = NO_FAILURES
    costs: CostModel = field(default_factory=CostModel)
    seed: int = 1
    registry: ServiceRegistry | None = None
    threaded_time_scale: float = 0.0
    collect_timeline: bool = True
    max_virtual_time: float = 1_000_000.0
    obs: Observability | None = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check the configuration coherence; raise ``ValueError`` otherwise."""
        backends.ensure_builtin_backends()
        backends.registry.get("runtime", self.mode)
        backends.registry.get("executor", self.executor)
        backends.registry.get("broker", self.broker)
        if self.cluster is None:
            backends.registry.get("cluster", self.cluster_preset)
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.failures.enabled and not self.broker_profile().persistent:
            raise ValueError(
                "failure injection requires a persistent broker (e.g. Kafka): the recovery "
                "mechanism replays the messages logged by the broker (Section IV-B)"
            )
        if self.threaded_time_scale < 0:
            raise ValueError("threaded_time_scale must be >= 0")

    # -------------------------------------------------------------- builders
    def build_cluster(self) -> Cluster:
        """The cluster to run on (explicit cluster, or the named preset)."""
        if self.cluster is not None:
            return self.cluster
        return backends.get_backend("cluster", self.cluster_preset).build(self)

    def build_network(self) -> NetworkModel:
        """The network model: explicit, the cluster preset's ``network``
        capability (a model or a ``(config) -> NetworkModel`` factory), or
        the Grid'5000 default."""
        if self.network is not None:
            return self.network
        if self.cluster is None:
            network = backends.get_backend("cluster", self.cluster_preset).capability("network")
            if callable(network):
                return network(self)
            if network is not None:
                return network
        from repro.cluster.grid5000 import grid5000_network

        return grid5000_network()

    def build_executor(self) -> Any:
        """The distributed executor instance (from the executor backends)."""
        return backends.get_backend("executor", self.executor).build(self)

    def broker_profile(self) -> Any:
        """The broker profile selected by ``broker`` (from the broker backends)."""
        return backends.get_backend("broker", self.broker).build(self)

    def build_local_broker(self) -> Any:
        """The in-process broker of the wall-clock runtimes (the backend's optional
        ``broker_class`` capability selects a specialised one), observability attached."""
        from repro.messaging import InProcessBroker

        broker_class = backends.get_backend("broker", self.broker).capability("broker_class", InProcessBroker)
        broker = broker_class(self.broker_profile())
        broker.attach_observability(self.obs)
        return broker

    def build_registry(self) -> ServiceRegistry:
        """The service registry (a fresh default one when none was given)."""
        return self.registry if self.registry is not None else ServiceRegistry()

    # --------------------------------------------------------------- utility
    def with_overrides(self, **overrides: Any) -> "GinFlowConfig":
        """A validated copy of the configuration with some attributes replaced."""
        unknown = set(overrides) - {spec.name for spec in fields(self)}
        if unknown:
            raise ValueError(f"unknown configuration field(s): {sorted(unknown)}")
        # replace() re-runs __post_init__, which validates the copy.
        return replace(self, **overrides)


def __getattr__(name: str) -> Any:
    """Derived views of the registry, kept for backwards compatibility."""
    view = backends.DERIVED_VIEWS.get(name)
    if view is not None:
        return view()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
