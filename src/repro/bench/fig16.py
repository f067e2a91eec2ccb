"""Fig. 16 — Resilience: execution time under injected agent failures.

The Montage workflow runs over the Mesos executor and the Kafka broker while
every running agent fails with probability ``p`` after ``T`` seconds of
service execution (a restarted agent can fail again).  The paper sweeps
``p ∈ {0.2, 0.5, 0.8}`` and ``T ∈ {0, 15, 100}`` seconds, repeats every point
up to 10 times and compares against the no-failure baseline (484 s average).

Expected shape:

* the overhead grows with ``p`` for every ``T``;
* ``T = 0`` failures are cheap to recover (little work lost) — tens of
  seconds of overhead even for hundreds of failures;
* ``T = 15`` exposes ≈ 95 % of the services and loses 15 s of work per
  failure, with a larger spread;
* ``T = 100`` only hits the long projection tasks but loses 100 s per
  failure, so the overhead dominates at high ``p``.

The driver is a :class:`~repro.experiments.ParameterGrid` declaration
(failure delay × failure probability, with repeats) executed through
:meth:`GinFlow.sweep`; the ``failure_probability`` / ``failure_delay`` cell
keys build the per-cell :class:`~repro.services.FailureModel` automatically.
"""

from __future__ import annotations

from typing import Any

from repro.experiments import ParameterGrid
from repro.runtime import GinFlow, GinFlowConfig
from repro.workflow import montage_workflow

from .common import experiment_scale, format_table

__all__ = ["PROBABILITIES", "DELAYS", "fig16_grid", "run_fig16", "run_fig16_baseline", "format_fig16"]

#: Failure probabilities of the paper.
PROBABILITIES = (0.2, 0.5, 0.8)

#: Failure delays (seconds) of the paper.
DELAYS = (0.0, 15.0, 100.0)


def fig16_grid(
    probabilities: tuple[float, ...] = PROBABILITIES,
    delays: tuple[float, ...] = DELAYS,
) -> ParameterGrid:
    """The Fig. 16 grid: failure delay (outer) × failure probability."""
    return ParameterGrid({"failure_delay": delays, "failure_probability": probabilities})


def _fig16_config(seed: int) -> GinFlowConfig:
    return GinFlowConfig(nodes=25, executor="mesos", broker="kafka", seed=seed, collect_timeline=False)


def run_fig16_baseline(repetitions: int = 3, seed: int = 1) -> dict[str, Any]:
    """The no-failure reference execution (the dashed line of Fig. 16)."""
    report = GinFlow(_fig16_config(seed)).sweep(
        lambda: montage_workflow(seed=seed),
        ParameterGrid({}),
        repeats=repetitions,
        name="fig16-baseline",
    )
    cell = report.cells(metrics=("execution_time",))[0]
    return {"mean": cell["execution_time_mean"], "std": cell["execution_time_std"], "repetitions": cell["runs"]}


def run_fig16(
    scale: str | None = None,
    repetitions: int | None = None,
    probabilities: tuple[float, ...] = PROBABILITIES,
    delays: tuple[float, ...] = DELAYS,
    seed: int = 1,
) -> list[dict[str, Any]]:
    """Run the Fig. 16 failure sweep; one row per (T, p) cell."""
    if repetitions is None:
        repetitions = 10 if experiment_scale(scale) == "paper" else 2
    report = GinFlow(_fig16_config(seed)).sweep(
        lambda: montage_workflow(seed=seed),
        fig16_grid(probabilities, delays),
        repeats=repetitions,
        name="fig16",
    )
    rows: list[dict[str, Any]] = []
    for cell in report.cells(metrics=("execution_time", "failures", "recoveries")):
        rows.append(
            {
                "T": cell["failure_delay"],
                "p": cell["failure_probability"],
                "execution_time": cell["execution_time_mean"],
                "execution_time_std": cell["execution_time_std"],
                "failures": cell["failures_mean"],
                "recoveries": cell["recoveries_mean"],
                "repetitions": cell["runs"],
            }
        )
    return rows


def format_fig16(rows: list[dict[str, Any]], baseline: dict[str, Any] | None = None) -> str:
    """Text rendering of the Fig. 16 bars."""
    title = "Fig. 16 — Montage execution time under injected failures (Mesos + Kafka)"
    if baseline:
        title += f"\n  no-failure baseline: {baseline['mean']:.1f} s (std {baseline['std']:.1f})"
    return format_table(
        rows,
        columns=["T", "p", "execution_time", "execution_time_std", "failures", "recoveries"],
        title=title,
    )
