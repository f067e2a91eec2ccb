"""Fig. 13 — Adaptiveness overhead (with/without-adaptation ratio).

The paper executes square diamond workflows (``h = v``), raises an exception
on the *last* service of the mesh, and replaces the whole diamond body
on-the-fly; the reported metric is the ratio between the adaptive execution
time and a regular (no failure, no adaptation) execution of the same
workflow.  Three scenarios are studied:

* *simple to simple* — replace a simple-connected body by another one;
* *simple to full* — replace a simple-connected body by a fully-connected one;
* *full to simple* — replace a fully-connected body by a simple-connected one.

Expected shape: the ratio stays below ≈ 2 for simple→simple (adapting is
cheaper than re-running the workflow from scratch), between ≈ 2 and 3 for
simple→full, and constant-or-decreasing for full→simple.

The driver is a :class:`~repro.experiments.ParameterGrid` declaration
(scenario × size × variant) executed through :meth:`GinFlow.sweep`; the
baseline/adaptive pairs are then joined into ratio rows.
"""

from __future__ import annotations

from typing import Any

from repro.experiments import ParameterGrid
from repro.runtime import GinFlow, GinFlowConfig
from repro.workflow import adaptive_diamond_workflow, diamond_workflow

from .common import experiment_scale, format_table

__all__ = ["SCENARIOS", "SMALL_CONFIGURATIONS", "PAPER_CONFIGURATIONS", "fig13_grid", "run_fig13", "format_fig13"]

#: The three replacement scenarios of the paper.
SCENARIOS = (
    ("simple-to-simple", "simple", "simple"),
    ("simple-to-full", "simple", "full"),
    ("full-to-simple", "full", "simple"),
)

_SCENARIO_CONNECTIVITY = {name: (body, replacement) for name, body, replacement in SCENARIOS}

#: Reduced set of square configurations.
SMALL_CONFIGURATIONS = (1, 6, 11)

#: The paper's configurations (Fig. 13 x-axis).
PAPER_CONFIGURATIONS = (1, 6, 11, 16, 21)

TASK_DURATION = 0.1


def fig13_grid(scale: str | None = None) -> ParameterGrid:
    """The Fig. 13 grid: scenario × size × (baseline, adaptive) variant."""
    configurations = PAPER_CONFIGURATIONS if experiment_scale(scale) == "paper" else SMALL_CONFIGURATIONS
    return ParameterGrid(
        {
            "scenario": [name for name, _, _ in SCENARIOS],
            "size": configurations,
            "variant": ["baseline", "adaptive"],
        }
    )


def _fig13_workflow(scenario: str, size: int, variant: str):
    body, replacement = _SCENARIO_CONNECTIVITY[scenario]
    if variant == "baseline":
        return diamond_workflow(size, size, connectivity=body, duration=TASK_DURATION)
    return adaptive_diamond_workflow(
        size, size, body_connectivity=body, replacement_connectivity=replacement, duration=TASK_DURATION
    )


def run_fig13(
    scale: str | None = None,
    nodes: int = 25,
    broker: str = "activemq",
    seed: int = 1,
) -> list[dict[str, Any]]:
    """Run the Fig. 13 sweep; one row per (scenario, configuration)."""
    config = GinFlowConfig(nodes=nodes, executor="ssh", broker=broker, seed=seed, collect_timeline=False)
    report = GinFlow(config).sweep(_fig13_workflow, fig13_grid(scale), name="fig13")
    # Join each (scenario, size) baseline/adaptive pair into one ratio row.
    by_point: dict[tuple[str, int], dict[str, Any]] = {}
    for run in report.rows:
        by_point.setdefault((run["scenario"], run["size"]), {})[run["variant"]] = run
    rows: list[dict[str, Any]] = []
    for (scenario, size), pair in by_point.items():
        baseline, adaptive = pair["baseline"], pair["adaptive"]
        ratio = (
            adaptive["execution_time"] / baseline["execution_time"]
            if baseline["execution_time"]
            else float("nan")
        )
        rows.append(
            {
                "scenario": scenario,
                "configuration": f"{size}x{size}",
                "size": size,
                "baseline_time": baseline["execution_time"],
                "adaptive_time": adaptive["execution_time"],
                "ratio": ratio,
                "adaptations_triggered": adaptive["adaptations"],
                "succeeded": adaptive["succeeded"] and baseline["succeeded"],
            }
        )
    return rows


def format_fig13(rows: list[dict[str, Any]]) -> str:
    """Text rendering of the Fig. 13 ratios."""
    return format_table(
        rows,
        columns=["scenario", "configuration", "baseline_time", "adaptive_time", "ratio"],
        title="Fig. 13 — with-adaptiveness over without-adaptiveness execution-time ratio",
    )
