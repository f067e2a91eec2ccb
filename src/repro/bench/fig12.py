"""Fig. 12 — Coordination timespan of diamond-shaped workflows.

The paper sweeps the diamond size (``h`` services in parallel × ``v``
services in sequence, Fig. 11) for the simple-connected and fully-connected
flavours and reports the total coordination time (the tasks themselves only
simulate a very short constant execution time).  Expected shape:

* time grows with both ``h`` and ``v``; the vertical dimension has the
  steeper slope (every extra row adds a full coordination round-trip);
* the fully-connected flavour is markedly more expensive (≈ 3× at 31×31,
  54 s vs 178 s in the paper) because every row exchanges ``h²`` messages.

The driver is a :class:`~repro.experiments.ParameterGrid` declaration
(connectivity × h × v) executed through :meth:`GinFlow.sweep`.
"""

from __future__ import annotations

from typing import Any

from repro.experiments import ParameterGrid
from repro.runtime import GinFlow, GinFlowConfig
from repro.workflow import diamond_workflow

from .common import experiment_scale, format_table

__all__ = ["SMALL_SIZES", "PAPER_SIZES", "fig12_grid", "run_fig12", "format_fig12"]

#: Reduced grid used by default (keeps the bench suite fast).
SMALL_SIZES = (1, 6, 11, 16)

#: The paper's grid (Fig. 12 plots 1..31 on both axes).
PAPER_SIZES = (1, 6, 11, 16, 21, 26, 31)

#: Very low constant task execution time, as in the paper.
TASK_DURATION = 0.1


def fig12_grid(scale: str | None = None, connectivities: tuple[str, ...] = ("simple", "full")) -> ParameterGrid:
    """The Fig. 12 parameter grid: connectivity × horizontal × vertical."""
    sizes = PAPER_SIZES if experiment_scale(scale) == "paper" else SMALL_SIZES
    return ParameterGrid(
        {"connectivity": list(connectivities), "horizontal": sizes, "vertical": sizes}
    )


def _fig12_workflow(connectivity: str, horizontal: int, vertical: int):
    return diamond_workflow(horizontal, vertical, connectivity=connectivity, duration=TASK_DURATION)


def _fig12_metrics(report, cell, workflow) -> dict[str, Any]:
    return {
        "services": len(workflow),
        "coordination_time": report.execution_time,
        "messages": report.messages_published,
        "succeeded": report.succeeded,
    }


def run_fig12(
    scale: str | None = None,
    connectivities: tuple[str, ...] = ("simple", "full"),
    nodes: int = 25,
    broker: str = "activemq",
    seed: int = 1,
) -> list[dict[str, Any]]:
    """Run the Fig. 12 sweep; returns one row per (connectivity, h, v) point."""
    config = GinFlowConfig(nodes=nodes, executor="ssh", broker=broker, seed=seed, collect_timeline=False)
    report = GinFlow(config).sweep(
        _fig12_workflow,
        fig12_grid(scale, connectivities),
        name="fig12",
        metrics=_fig12_metrics,
    )
    return report.rows


def format_fig12(rows: list[dict[str, Any]]) -> str:
    """Text rendering of the Fig. 12 surfaces."""
    return format_table(
        rows,
        columns=["connectivity", "horizontal", "vertical", "services", "coordination_time", "messages"],
        title="Fig. 12 — coordination timespan of diamond-shaped workflows (seconds)",
    )
