"""Fig. 15 — Shape and task-duration CDF of the Montage workflow.

The resilience experiment uses a 118-task Montage workflow (mosaic of the M45
cluster).  Fig. 15 characterises it: the DAG shape (a very wide parallel
projection stage of 108 tasks feeding a merge chain) and the cumulative
distribution of task durations, annotated with three duration classes
(``T < 20``, ``20 < T < 60``, ``60 < T``).

This harness regenerates both: the per-level width profile of the generated
workflow and its duration CDF / class counts.  Like the other drivers it is
a :class:`~repro.experiments.ParameterGrid` declaration executed through
:meth:`GinFlow.sweep` — with a custom *runner* that characterises the
workload instead of executing it (Fig. 15 measures the workflow, not a run).
"""

from __future__ import annotations

from typing import Any

from repro.experiments import ParameterGrid
from repro.runtime import GinFlow
from repro.workflow import duration_cdf, duration_classes, montage_workflow

from .common import format_table

__all__ = ["fig15_grid", "run_fig15", "format_fig15"]


def fig15_grid(seed: int = 1) -> ParameterGrid:
    """The (degenerate) Fig. 15 grid: one Montage workload per seed."""
    # "workload_seed" (not "seed") so the value routes to the workflow
    # factory rather than to the run configuration.
    return ParameterGrid({"workload_seed": [seed]})


def _fig15_workflow(workload_seed: int):
    return montage_workflow(seed=workload_seed)


def _characterize(workflow, config, cell) -> dict[str, Any]:
    """Custom sweep runner: measure the workload itself (no execution)."""
    durations, fractions = duration_cdf(workflow)  # sorted ascending
    classes = duration_classes(workflow)
    levels = workflow.levels()
    cdf_points = [
        {"duration": duration, "fraction": fraction} for duration, fraction in zip(durations, fractions)
    ]
    return {
        "task_count": len(workflow),
        "level_widths": [len(level) for level in levels],
        "max_parallelism": max(len(level) for level in levels),
        "duration_classes": classes,
        "duration_min": durations[0],
        "duration_max": durations[-1],
        "critical_path": workflow.critical_path_length(),
        "cdf": cdf_points,
    }


def run_fig15(seed: int = 1) -> dict[str, Any]:
    """Build the Montage workload and compute its Fig. 15 characterisation."""
    report = GinFlow().sweep(
        _fig15_workflow, fig15_grid(seed), name="fig15", runner=_characterize
    )
    return report.rows[0]


def format_fig15(data: dict[str, Any]) -> str:
    """Text rendering of the Fig. 15 characterisation."""
    class_rows = [
        {"duration_class": name, "tasks": count, "fraction": count / data["task_count"]}
        for name, count in data["duration_classes"].items()
    ]
    lines = [
        "Fig. 15 — Montage workflow shape and task-duration CDF",
        f"  tasks            : {data['task_count']}",
        f"  level widths     : {data['level_widths']}",
        f"  max parallelism  : {data['max_parallelism']}",
        f"  duration range   : {data['duration_min']:.0f} s .. {data['duration_max']:.0f} s",
        f"  critical path    : {data['critical_path']:.0f} s",
        "",
        format_table(class_rows, columns=["duration_class", "tasks", "fraction"]),
    ]
    return "\n".join(lines)
