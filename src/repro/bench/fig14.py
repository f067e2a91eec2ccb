"""Fig. 14 — Executor and messaging-middleware impact.

A 10×10 simple-connected diamond is executed with every combination of
executor (SSH, Mesos) and messaging middleware (ActiveMQ, Kafka) on 5, 10 and
15 nodes; the reported time is split into deployment time and execution time
(averaged over several runs in the paper).  Expected shape:

* SSH deployment time increases slightly with the node count (more SSH
  channels to manage), while Mesos deployment time decreases roughly linearly
  (each resource offer contains more machines, so more agents start per
  offer round);
* execution time barely depends on the executor but strongly on the broker:
  Kafka runs ≈ 4× slower than ActiveMQ.

The driver is a :class:`~repro.experiments.ParameterGrid` declaration
(executor × broker × nodes, with repeats) executed through
:meth:`GinFlow.sweep` and aggregated per cell.
"""

from __future__ import annotations

from typing import Any

from repro.experiments import ParameterGrid
from repro.runtime import GinFlow, GinFlowConfig
from repro.workflow import diamond_workflow

from .common import experiment_scale, format_table

__all__ = ["NODE_COUNTS", "COMBINATIONS", "fig14_grid", "run_fig14", "format_fig14"]

#: Node counts of the Fig. 14 x-axis.
NODE_COUNTS = (5, 10, 15)

#: Executor / broker combinations of the paper.
COMBINATIONS = (
    ("ssh", "activemq"),
    ("ssh", "kafka"),
    ("mesos", "activemq"),
    ("mesos", "kafka"),
)

DIAMOND_SIZE = 10
TASK_DURATION = 0.1


def fig14_grid() -> ParameterGrid:
    """The Fig. 14 grid: the paper's (executor, broker) pairs × node count."""
    return ParameterGrid(
        [
            {"executor": [executor], "broker": [broker], "nodes": NODE_COUNTS}
            for executor, broker in COMBINATIONS
        ]
    )


def _fig14_workflow():
    return diamond_workflow(DIAMOND_SIZE, DIAMOND_SIZE, connectivity="simple", duration=TASK_DURATION)


def run_fig14(
    scale: str | None = None,
    repetitions: int | None = None,
    seed: int = 1,
) -> list[dict[str, Any]]:
    """Run the Fig. 14 grid; one row per (executor, broker, node count)."""
    if repetitions is None:
        repetitions = 10 if experiment_scale(scale) == "paper" else 2
    config = GinFlowConfig(seed=seed, collect_timeline=False)
    report = GinFlow(config).sweep(_fig14_workflow, fig14_grid(), repeats=repetitions, name="fig14")
    rows: list[dict[str, Any]] = []
    for cell in report.cells(metrics=("deployment_time", "execution_time")):
        rows.append(
            {
                "executor": cell["executor"],
                "broker": cell["broker"],
                "nodes": cell["nodes"],
                "deployment_time": cell["deployment_time_mean"],
                "execution_time": cell["execution_time_mean"],
                "total_time": cell["deployment_time_mean"] + cell["execution_time_mean"],
                "repetitions": cell["runs"],
            }
        )
    return rows


def format_fig14(rows: list[dict[str, Any]]) -> str:
    """Text rendering of the Fig. 14 bars."""
    return format_table(
        rows,
        columns=["executor", "broker", "nodes", "deployment_time", "execution_time", "total_time"],
        title="Fig. 14 — 10x10 diamond: executor / messaging middleware impact (seconds)",
    )
