"""First-class experiments: a declarative grid executed into a SweepReport.

An :class:`Experiment` binds a workflow (or workflow *factory*), a
:class:`~repro.experiments.grid.ParameterGrid` and a base
:class:`~repro.runtime.config.GinFlowConfig`, and executes every cell
``repeats`` times — sequentially, or in a pool of ``workers`` processes —
aggregating everything into a :class:`~repro.experiments.report.SweepReport`.

Cell parameters are routed automatically:

* keys naming :class:`GinFlowConfig` fields (``nodes``, ``broker``,
  ``executor``, ``mode``, ``seed``, ``costs``, ...) override the base
  configuration for that cell;
* ``failure_probability`` / ``failure_delay`` build a
  :class:`~repro.services.FailureModel`;
* ``scenario`` (when the experiment has no workflow source of its own)
  names a registered workflow scenario — a bare name or a ``"name:k=v,..."``
  spec, see :mod:`repro.scenarios` — generating the cell's workflow, so the
  grid can sweep structurally distinct DAG families;
* every other key is passed to the workflow factory (or the scenario
  generator) as a keyword argument.

Each repeat derives its seed as ``base_seed + repeat`` (the cell's ``seed``
if swept, the configuration's otherwise), so repeated cells are independent
but the whole sweep stays reproducible.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.runtime.config import GinFlowConfig
from repro.runtime.results import RunReport
from repro.services import FailureModel
from repro.workflow.dag import Workflow
from repro.workflow.json_format import workflow_from_json

from .grid import ParameterGrid
from .report import SweepReport

__all__ = ["Experiment"]

#: Cell keys translated into a FailureModel instead of a config field.
_FAILURE_KEYS = ("failure_probability", "failure_delay")

_CONFIG_FIELDS = frozenset(GinFlowConfig.__match_args__)


def _execute_point(point: tuple["Experiment", dict[str, Any], int]) -> dict[str, Any]:
    """Top-level trampoline so process pools can pickle the work items."""
    experiment, cell, repeat = point
    return experiment.execute_cell(cell, repeat)


@dataclass
class Experiment:
    """A declarative parameter sweep over GinFlow runs.

    Attributes
    ----------
    name:
        Label echoed into the :class:`SweepReport` and its exports.
    workflow:
        A :class:`Workflow`, a JSON string/dict/path, or a callable invoked
        with the cell's workflow parameters and returning a workflow.  May
        be ``None`` when a custom ``runner`` ignores it.
    grid:
        A :class:`ParameterGrid` (or anything its constructor accepts).
    config:
        Base configuration each cell overrides (defaults to
        ``GinFlowConfig()``).
    repeats:
        Runs per cell (seeds derived as ``base_seed + repeat``).
    timeout:
        Per-run timeout forwarded to wall-clock runtimes.
    metrics:
        Optional ``(report, cell, workflow) -> mapping`` callback whose
        result is merged into each row.
    runner:
        Optional ``(workflow, config, cell) -> RunReport | mapping``
        replacing the default GinFlow execution (characterisation sweeps,
        micro-benchmarks).  A mapping return value becomes the row as-is
        (cell parameters are still included).
    fixed:
        Parameters merged into every cell (cell values win).
    """

    name: str = "experiment"
    workflow: Any = None
    grid: Any = field(default_factory=dict)
    config: GinFlowConfig | None = None
    repeats: int = 1
    timeout: float = 120.0
    metrics: Callable[[RunReport, dict[str, Any], Workflow | None], Mapping[str, Any]] | None = None
    runner: Callable[[Workflow | None, GinFlowConfig, dict[str, Any]], Any] | None = None
    fixed: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.grid, ParameterGrid):
            self.grid = ParameterGrid(self.grid)
        if self.config is None:
            self.config = GinFlowConfig()
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    # ------------------------------------------------------------------ run
    def run(self, workers: int | None = None) -> SweepReport:
        """Execute every (cell, repeat) point; returns the aggregated report.

        ``workers`` > 1 runs the points in a pool of that many spawned
        processes, ``None`` or 1 in this one (any other count is refused);
        row order always matches grid order regardless of the
        execution order.  The whole experiment (workflow factory, metrics,
        runner, config) must then be picklable — use module-level functions,
        not lambdas — and carry no observability: a record made in a worker
        process would not come back.
        """
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        points = [
            (self, dict(cell), repeat)
            for cell in self.grid
            for repeat in range(self.repeats)
        ]
        if workers is not None and workers > 1 and len(points) > 1:
            assert self.config is not None
            if self.config.obs is not None:
                raise ValueError(
                    "a sweep with workers > 1 cannot be traced (--trace): its records "
                    "would stay in the worker processes; drop one of the two"
                )
            self._check_picklable()
            # spawned, not forked: a worker starts as a fresh interpreter and
            # inherits nothing of this process's state (nor its threads)
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
                rows = list(pool.map(_execute_point, points))
        else:
            rows = [_execute_point(point) for point in points]
        return SweepReport(
            name=self.name,
            rows=rows,
            grid_keys=self.grid.keys(),
            repeats=self.repeats,
        )

    # ------------------------------------------------------------ internals
    def _check_picklable(self) -> None:
        import pickle

        try:
            pickle.dumps(self)
        except Exception as exc:
            raise ValueError(
                "workers > 1 requires a picklable experiment (module-level "
                f"workflow factory / metrics / runner, picklable config) ({exc})"
            ) from None

    def execute_cell(self, cell: dict[str, Any], repeat: int) -> dict[str, Any]:
        """Run one (cell, repeat) point and return its measurement row."""
        merged = {**self.fixed, **cell}
        config, workflow_kwargs, base_seed = self._split_cell(merged)
        seed = base_seed + repeat
        config = config.with_overrides(seed=seed)
        workflow = self._resolve_workflow(workflow_kwargs)

        row: dict[str, Any] = dict(merged)
        # Grid keys are the cell's identity — measurements must never clobber
        # them (e.g. a swept "seed" or "failures" config field), or the
        # per-cell aggregation falls apart.  The derived per-repeat seed goes
        # to "run_seed" when "seed" itself is swept.
        row["seed" if "seed" not in merged else "run_seed"] = seed
        row["repeat"] = repeat
        outcome = self._run_point(workflow, config, merged)
        if isinstance(outcome, RunReport):
            measurements = {
                "succeeded": outcome.succeeded,
                "timed_out": outcome.timed_out,
                "makespan": outcome.makespan,
                "deployment_time": outcome.deployment_time,
                "execution_time": outcome.execution_time,
                "messages": outcome.messages_published,
                "failures": outcome.failures_injected,
                "recoveries": outcome.recoveries,
                "adaptations": outcome.adaptations_triggered,
            }
            for key, value in measurements.items():
                row[key if key not in merged else f"measured_{key}"] = value
            if self.metrics is not None:
                row.update(self.metrics(outcome, merged, workflow))
        elif isinstance(outcome, Mapping):
            row.update(outcome)
        else:
            raise TypeError(
                f"experiment runner must return a RunReport or a mapping, got {type(outcome).__name__}"
            )
        return row

    def _run_point(self, workflow: Workflow | None, config: GinFlowConfig, cell: dict[str, Any]) -> Any:
        if self.runner is not None:
            return self.runner(workflow, config, cell)
        if workflow is None:
            raise ValueError("an Experiment without a custom runner needs a workflow")
        from time import perf_counter

        from repro.runtime.ginflow import GinFlow

        trace = config.obs.active_tracer() if config.obs is not None else None
        started = perf_counter() if trace is not None else 0.0
        report = GinFlow(config).run(workflow, timeout=self.timeout)
        if trace is not None:
            attrs = {
                key: value
                for key, value in cell.items()
                if isinstance(value, (str, int, float, bool))
            }
            trace.span(
                "sweep.cell", "sweep", started, perf_counter(), seed=config.seed, **attrs
            )
        return report

    def _split_cell(self, cell: dict[str, Any]) -> tuple[GinFlowConfig, dict[str, Any], int]:
        overrides: dict[str, Any] = {}
        workflow_kwargs: dict[str, Any] = {}
        for key, value in cell.items():
            if key in _FAILURE_KEYS:
                continue
            if key in _CONFIG_FIELDS:
                overrides[key] = value
            else:
                workflow_kwargs[key] = value
        assert self.config is not None
        if any(key in cell for key in _FAILURE_KEYS):
            # Un-swept failure parameters inherit from the base model (a
            # swept "failures" config field, if any, then the config's).
            base = cell.get("failures", self.config.failures)
            overrides["failures"] = FailureModel(
                probability=float(cell.get("failure_probability", base.probability)),
                delay=float(cell.get("failure_delay", base.delay)),
                detection_delay=base.detection_delay,
                restart_delay=base.restart_delay,
            )
        base_seed = int(overrides.pop("seed", self.config.seed))
        config = self.config.with_overrides(**overrides) if overrides else self.config
        return config, workflow_kwargs, base_seed

    def _resolve_workflow(self, workflow_kwargs: dict[str, Any]) -> Workflow | None:
        source = self.workflow
        if source is None:
            # With no workflow source of its own, a 'scenario' cell key names
            # a registered scenario spec that generates the cell's workflow
            # (the remaining keys are generator overrides).  A workflow
            # factory that wants a parameter called "scenario" keeps it: the
            # key is only interpreted here when there is nothing to route it
            # to.
            if self.runner is None and "scenario" in workflow_kwargs:
                from repro.scenarios import build_scenario

                spec = workflow_kwargs.pop("scenario")
                return build_scenario(str(spec), **workflow_kwargs)
            if workflow_kwargs and self.runner is None:
                raise ValueError(f"no workflow to receive grid parameters {sorted(workflow_kwargs)}")
            return None
        if callable(source) and not isinstance(source, Workflow):
            workflow = source(**workflow_kwargs)
        else:
            if workflow_kwargs:
                raise ValueError(
                    f"grid parameters {sorted(workflow_kwargs)} match neither a configuration "
                    "field nor a workflow-factory argument (the workflow is fixed)"
                )
            workflow = source
        if isinstance(workflow, Workflow):
            return workflow
        return workflow_from_json(workflow)
    # Note: a factory may legitimately return a JSON string/dict; it is
    # normalised right above.
