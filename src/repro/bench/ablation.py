"""Ablation experiments (not figures of the paper, but design-choice checks).

Two ablations back up discussion points of the paper:

* **HOCL matching cost vs. solution size** (Section V-A: "the complexity of
  the pattern matching process depends on the size of the solution") — reduce
  multisets of increasing size with the getMax rule and measure reactions and
  match attempts per atom.
* **Status-update traffic** (Section IV-A: every agent pushes its status to
  the shared multiset) — run the same diamond with and without status
  updates to isolate their share of the coordination time.

Both are :class:`~repro.experiments.ParameterGrid` declarations executed
through :meth:`GinFlow.sweep` — the first with a custom micro-benchmark
runner, the second as a regular sweep over two cost models.
"""

from __future__ import annotations

import time
from typing import Any

from repro.experiments import ParameterGrid
from repro.hocl import Compare, Multiset, Ref, Rule, Var, reduce_solution
from repro.runtime import CostModel, GinFlow, GinFlowConfig
from repro.workflow import diamond_workflow

from .common import format_table

__all__ = ["run_matching_cost_ablation", "run_status_update_ablation", "format_ablation"]


def _measure_matching_cost(workflow, config, cell) -> dict[str, Any]:
    """Custom sweep runner: reduce a getMax multiset and time it."""
    size = cell["solution_size"]
    max_rule = Rule("max", [Var("x", kind="int"), Var("y", kind="int")], [Ref("x")], condition=Compare(">=", Ref("x"), Ref("y")))
    solution = Multiset(list(range(size)) + [max_rule])
    started = time.perf_counter()
    report = reduce_solution(solution)
    elapsed = time.perf_counter() - started
    return {
        "reactions": report.reactions,
        "match_attempts": report.match_attempts,
        "wall_time_s": elapsed,
        "final_size": len(solution),
    }


def run_matching_cost_ablation(sizes: tuple[int, ...] = (10, 50, 100, 200)) -> list[dict[str, Any]]:
    """Measure HOCL reduction cost as the multiset grows (getMax workload)."""
    report = GinFlow().sweep(
        None,
        ParameterGrid({"solution_size": list(sizes)}),
        name="ablation-matching-cost",
        runner=_measure_matching_cost,
    )
    return report.rows


def _status_workflow(size: int):
    return diamond_workflow(size, size, connectivity="simple", duration=0.1)


def run_status_update_ablation(size: int = 8, nodes: int = 15) -> list[dict[str, Any]]:
    """Compare coordination time with and without shared-space status updates."""
    grid = ParameterGrid(
        {
            "costs": [
                CostModel(status_update_enabled=True),
                CostModel(status_update_enabled=False),
            ],
            "size": [size],
        }
    )
    config = GinFlowConfig(nodes=nodes, executor="ssh", broker="activemq", collect_timeline=False)
    report = GinFlow(config).sweep(_status_workflow, grid, name="ablation-status-updates")
    return [
        {
            "status_updates": run["costs"].status_update_enabled,
            "execution_time": run["execution_time"],
            "messages": run["messages"],
            "succeeded": run["succeeded"],
        }
        for run in report.rows
    ]


def format_ablation(matching_rows: list[dict[str, Any]], status_rows: list[dict[str, Any]]) -> str:
    """Text rendering of both ablations."""
    return "\n\n".join(
        [
            format_table(
                matching_rows,
                columns=["solution_size", "reactions", "match_attempts", "wall_time_s"],
                title="Ablation A — HOCL pattern-matching cost vs. solution size",
            ),
            format_table(
                status_rows,
                columns=["status_updates", "execution_time", "messages"],
                title="Ablation B — shared-space status-update traffic",
            ),
        ]
    )
