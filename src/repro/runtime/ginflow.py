"""The GinFlow facade — the library's main entry point.

>>> from repro import GinFlow, diamond_workflow
>>> report = GinFlow().run(diamond_workflow(width=3, depth=2))
>>> report.succeeded
True

A :class:`GinFlow` instance holds a base configuration
(:class:`~repro.runtime.config.GinFlowConfig`); :meth:`run` accepts per-call
overrides (``executor="mesos"``, ``broker="kafka"``, ``mode="asyncio"``...)
and runs on the runtime its ``mode`` names in
:data:`~repro.runtime.config.BACKENDS`.  The three runtimes are:

* ``simulated`` — virtual-time distributed execution over the simulated
  cluster (the default; this is what the benchmarks use);
* ``asyncio`` — real time on one event loop, every stimulus a callback on
  it, concurrency without threads;
* ``centralized`` — single HOCL interpreter, synchronous service calls.

``simulated`` and ``asyncio`` are one agent driver
(:class:`~repro.runtime.driver.AgentRun`) on two clocks, over the shared
enactment engine (:mod:`repro.runtime.enactment`), so they enact the exact
same decentralised protocol.

:meth:`sweep` executes a declarative :class:`~repro.experiments.ParameterGrid`
(nodes × broker × failure probability × ...) and aggregates the runs into a
:class:`~repro.experiments.SweepReport` — the API every benchmark driver of
:mod:`repro.bench` is built on.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any

from repro.executors.centralized import CentralizedExecutor
from repro.services import ServiceRegistry
from repro.workflow.dag import Workflow
from repro.workflow.json_format import workflow_from_json

from .config import GinFlowConfig, backend
from .enactment.report import centralized_report
from .results import RunReport

__all__ = ["GinFlow", "run_centralized"]


class GinFlow:
    """Decentralised adaptive workflow execution manager (paper's Section IV)."""

    def __init__(
        self, config: GinFlowConfig | None = None, registry: ServiceRegistry | None = None
    ) -> None:
        self.config = config or GinFlowConfig()
        # Explicit service-registry slot: the configuration stays immutable
        # and is never silently rewritten when services are registered.
        if registry is not None:
            self._services = registry
        elif self.config.registry is not None:
            self._services = self.config.registry
        else:
            self._services = ServiceRegistry()
        self._base_cache: tuple[GinFlowConfig, GinFlowConfig] | None = None

    # ------------------------------------------------------------- services
    @property
    def registry(self) -> ServiceRegistry:
        """The service registry used to resolve task services."""
        return self._services

    def register_service(self, name: str, function: Any, idempotent: bool = True) -> None:
        """Register a Python callable as the service ``name``."""
        self._services.register_function(name, function, idempotent=idempotent)

    # ------------------------------------------------------------------ run
    def run(self, workflow: Workflow | str | dict, timeout: float = 120.0, **overrides: Any) -> RunReport:
        """Execute ``workflow`` (a :class:`Workflow`, JSON string/dict or path).

        ``overrides`` are applied on top of the instance configuration for
        this run only (e.g. ``broker="kafka"``, ``nodes=10``,
        ``mode="centralized"``).  ``timeout`` only applies to wall-clock
        runtimes (the asyncio one, for the built-ins).
        """
        if not isinstance(workflow, Workflow):
            workflow = workflow_from_json(workflow)
        config = self._effective_config(overrides)
        workflow.ensure_valid()
        runtime = backend("runtime", config.mode)
        # with observability on, the collector is one more measured layer
        with config.obs.watching_gc() if config.obs is not None else nullcontext():
            return runtime(workflow, config, timeout)

    # ---------------------------------------------------------------- sweep
    def sweep(
        self,
        workflow: Any,
        grid: Any,
        *,
        repeats: int = 1,
        workers: int | None = None,
        name: str = "sweep",
        metrics: Any = None,
        runner: Any = None,
        timeout: float = 120.0,
        **overrides: Any,
    ) -> Any:
        """Execute a parameter ``grid`` and aggregate it into a ``SweepReport``.

        ``workflow`` is either a fixed workflow (object/JSON) or a factory
        called with the grid cell's non-configuration parameters;
        configuration-field cell keys (``nodes``, ``broker``, ``seed``, ...)
        override the instance configuration per cell, and
        ``failure_probability`` / ``failure_delay`` build a
        :class:`~repro.services.FailureModel`.  Each cell runs ``repeats``
        times with derived seeds; ``workers`` > 1 runs them in that many
        processes.  See :class:`repro.experiments.Experiment`.
        """
        from repro.experiments import Experiment

        config = self._effective_config(overrides)
        experiment = Experiment(
            name=name,
            workflow=workflow,
            grid=grid,
            config=config,
            repeats=repeats,
            timeout=timeout,
            metrics=metrics,
            runner=runner,
        )
        return experiment.run(workers=workers)

    # ------------------------------------------------------------ internals
    def _effective_config(self, overrides: dict[str, Any]) -> GinFlowConfig:
        # The instance's service slot is authoritative (it is where
        # register_service writes), unless this very call overrides it.
        if "registry" in overrides:
            return self.config.with_overrides(**overrides)
        base = self._base_config()
        return base.with_overrides(**overrides) if overrides else base

    def _base_config(self) -> GinFlowConfig:
        """``self.config`` with the service slot attached (cached — avoids
        re-validating the unchanged configuration on every run)."""
        if self._base_cache is None or self._base_cache[0] is not self.config:
            config = self.config
            if config.registry is not self._services:
                config = config.with_overrides(registry=self._services)
            self._base_cache = (self.config, config)
        return self._base_cache[1]


def run_centralized(workflow: Workflow, config: GinFlowConfig, timeout: float | None = None) -> RunReport:
    """Run ``workflow`` on a single centralised HOCL interpreter (the
    ``centralized`` runtime's entry point; ``timeout`` is unused)."""
    executor = CentralizedExecutor(registry=config.build_registry(), obs=config.obs)
    return centralized_report(executor.execute(workflow), config.seed)
