"""The GinFlow facade — the library's main entry point.

>>> from repro import GinFlow, diamond_workflow
>>> report = GinFlow().run(diamond_workflow(width=3, depth=2))
>>> report.succeeded
True

A :class:`GinFlow` instance holds a base configuration
(:class:`~repro.runtime.config.GinFlowConfig`); :meth:`run` accepts per-call
overrides (``executor="mesos"``, ``broker="kafka"``, ``mode="threaded"``...)
and dispatches through the runtime backend registry
(:mod:`repro.runtime.backends`).  The four built-in runtimes are:

* ``simulated`` — virtual-time distributed execution over the simulated
  cluster (the default; this is what the benchmarks use);
* ``threaded`` — real threads and in-process brokers on the local machine;
* ``asyncio`` — one event loop, every stimulus a callback on it,
  concurrency without threads;
* ``centralized`` — single HOCL interpreter, synchronous service calls.

``simulated``, ``threaded`` and ``asyncio`` are all thin drivers over the
shared enactment engine (:mod:`repro.runtime.enactment`), so they enact the
exact same decentralised protocol.

Third-party runtimes registered with
:func:`~repro.runtime.backends.register_runtime` dispatch the same way.

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

from .backends import get_backend
from .config import GinFlowConfig
from .results import RunReport, TaskOutcome

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
        runtimes (the threaded one, for the built-ins).
        """
        if not isinstance(workflow, Workflow):
            workflow = workflow_from_json(workflow)
        config = self._effective_config(overrides)
        workflow.ensure_valid()
        runtime = get_backend("runtime", config.mode)
        # with observability on, the collector is one more measured layer
        with config.obs.watching_gc() if config.obs is not None else nullcontext():
            return runtime.build(workflow, config, timeout=timeout)

    # ---------------------------------------------------------------- sweep
    def sweep(
        self,
        workflow: Any,
        grid: Any,
        *,
        repeats: int = 1,
        workers: int | None = None,
        parallel: str = "thread",
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
        times with derived seeds; ``workers`` enables thread
        (``parallel="thread"``) or process (``parallel="process"``)
        parallelism.  See :class:`repro.experiments.Experiment`.
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
        return experiment.run(workers=workers, parallel=parallel)

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
    ``centralized`` backend's entry point; ``timeout`` is unused)."""
    executor = CentralizedExecutor(registry=config.build_registry(), obs=config.obs)
    outcome = executor.execute(workflow)
    exit_tasks = set(workflow.exit_tasks())
    report = RunReport(
        mode="centralized",
        executor="centralized",
        broker="none",
        nodes=1,
        seed=config.seed,
        deployment_time=0.0,
        execution_time=0.0,
        makespan=0.0,
        reduction_reactions=outcome.report.reactions,
        reduction_match_attempts=outcome.report.match_attempts,
    )
    all_names = set(workflow.task_names())
    for spec in workflow.adaptations:
        all_names.update(spec.replacement.task_names())
    for name in all_names:
        result = outcome.results.get(name)
        error = name in outcome.errors
        report.tasks[name] = TaskOutcome(
            task=name,
            state="failed" if error else ("completed" if result is not None else "idle"),
            result=result,
            error=error,
            node="localhost",
        )
        if name in exit_tasks and result is not None:
            report.results[name] = result
    report.succeeded = all(
        report.tasks[name].result is not None for name in exit_tasks
    )
    report.adaptations_triggered = sum(
        1 for spec in workflow.adaptations
        if any(report.tasks.get(t) is not None and report.tasks[t].result is not None
               for t in spec.replacement.task_names())
    )
    report.extra["invocations"] = outcome.invocations
    report.extra["rule_fires"] = dict(outcome.report.rule_fires)
    if outcome.timings is not None:
        report.extra["reduction_timings"] = dict(outcome.timings)
    if config.obs is not None and config.obs.metrics is not None:
        report.extra["metrics"] = config.obs.metrics.snapshot()
    return report
