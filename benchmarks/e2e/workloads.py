"""The five end-to-end workloads: what runs, why, and what a correct run prints.

Every workload is one ``ginflow run ... --json`` command line.  ``argv``
builds it from the benchmark seed: the seed goes into the scenario spec
(``seed=S``, which draws the task durations) and into ``ginflow run --seed S``
(which seeds the broker jitter and the failure injection), so the program only
ever sees generated inputs.  ``tasks`` is the size of the workflow, which every
correct run reports and completes; ``pins`` are the other deterministic
protocol outputs of seed 1 — a simulator or engine speed-up must leave them
identical.

``threaded`` is deliberately not a workload: it starts one OS thread per agent
(1000 threads on 2 cores), so its numbers would measure the scheduler, not the
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["SCALES", "WORKLOADS", "Workload", "check_report", "completed_tasks", "ginflow_argv"]

#: ``full`` is the benchmark; ``smoke`` (every workload at <= 40 tasks) only
#: tests the harness — its numbers mean nothing.
SCALES = ("full", "smoke")

#: the workflow file ``adapt-diamond-sim`` loads; run.py writes it during set-up
ADAPTIVE_DIAMOND_FILE = "adaptive-diamond.json"


@dataclass(frozen=True)
class Workload:
    """One named ``ginflow run`` command line and its expected output."""

    name: str
    why: str
    #: ``ginflow run`` arguments after the workflow source
    options: tuple[str, ...]
    #: scenario name, or ``None`` for the JSON front door (adaptive diamond)
    scenario: str | None
    #: scale -> scenario ``size`` (adaptive diamond: width == depth)
    size: dict[str, int]
    #: scale -> tasks in the workflow (replacement tasks included)
    tasks: dict[str, int]
    #: scale -> further summary fields every correct seed-1 run prints
    pins: dict[str, dict[str, Any]]
    #: injected crashes: ``failures_injected == recoveries > 0`` when true, 0 otherwise
    recovers: bool = False
    #: Fig. 13: one adaptation fires and the failing task never completes
    adapts: bool = False
    #: a wall-clock runtime: execution_time / makespan differ from run to run
    real_time: bool = False


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="montage-sim",
        why="paper's Montage on the default simulated runtime; two ~500-way fan-ins make agent "
        "stimulus handling (SRC/IN rewrite outside reduction) the largest share",
        options=("--mode", "simulated"),
        scenario="montage",
        size={"full": 1000, "smoke": 30},
        tasks={"full": 1000, "smoke": 30},
        pins={
            "full": {"messages_published": 5980, "makespan": 529.306, "failures_injected": 0},
            "smoke": {"messages_published": 160, "makespan": 513.354, "failures_injected": 0},
        },
    ),
    Workload(
        name="montage-central",
        why="same Montage on the centralised baseline: hocl does nearly all the work and agents, "
        "messaging, simkernel do none; an engine change must show here, a broker change must not",
        options=("--mode", "centralized"),
        scenario="montage",
        size={"full": 1000, "smoke": 30},
        tasks={"full": 1000, "smoke": 30},
        pins={
            "full": {"messages_published": 0, "makespan": 0.0, "failures_injected": 0},
            "smoke": {"messages_published": 0, "makespan": 0.0, "failures_injected": 0},
        },
    ),
    Workload(
        name="adapt-diamond-sim",
        why="Fig. 13 full-to-simple adaptation of a 21x21 diamond loaded from JSON: 884 agents, 20k "
        "messages, 11k tiny reductions; highest messaging + simkernel share, only user of ADAPT",
        options=("--mode", "simulated"),
        scenario=None,
        size={"full": 21, "smoke": 4},
        tasks={"full": 884, "smoke": 34},
        pins={
            "full": {"messages_published": 20460, "makespan": 141.832, "failures_injected": 0},
            "smoke": {"messages_published": 230, "makespan": 32.011, "failures_injected": 0},
        },
        adapts=True,
    ),
    Workload(
        name="chain-aio",
        why="2000-deep sequential chain on the real-time asyncio runtime: fan-in 1, so per-agent "
        "set-up and the event-loop driver dominate; bypasses every fan-in optimisation",
        options=("--mode", "asyncio"),
        scenario="longchain",
        size={"full": 2000, "smoke": 40},
        tasks={"full": 2000, "smoke": 40},
        pins={
            "full": {"messages_published": 7998, "failures_injected": 0},
            "smoke": {"messages_published": 158, "failures_injected": 0},
        },
        real_time=True,
    ),
    Workload(
        name="montage-recover",
        why="Fig. 16 set-up (mesos, kafka, p=0.5, T=15): agents rebuilt by log replay once per "
        "crash; state cached for steady-state stimuli that recovery must rebuild shows its cost",
        options=(
            "--mode", "simulated", "--executor", "mesos", "--broker", "kafka",
            "--failure-probability", "0.5", "--failure-delay", "15",
        ),
        scenario="montage",
        size={"full": 800, "smoke": 30},
        tasks={"full": 800, "smoke": 30},
        pins={
            "full": {"messages_published": 6240, "makespan": 1230.4, "failures_injected": 730},
            "smoke": {"messages_published": 232, "makespan": 606.435, "failures_injected": 36},
        },
        recovers=True,
    ),
)


def ginflow_argv(workload: Workload, scale: str, seed: int, workdir: str) -> list[str]:
    """The ``ginflow`` argument vector of one sample of ``workload``."""
    if workload.scenario is None:
        source = [f"{workdir}/{ADAPTIVE_DIAMOND_FILE}"]
    else:
        source = ["--scenario", f"{workload.scenario}:size={workload.size[scale]},seed={seed}"]
    return ["run", *source, *workload.options, "--seed", str(seed), "--json"]


def completed_tasks(workload: Workload, scale: str) -> int:
    """Tasks a correct run completes: all but the one whose failure adapts."""
    return workload.tasks[scale] - int(workload.adapts)


def check_report(workload: Workload, scale: str, seed: int, summary: dict[str, Any]) -> list[str]:
    """What is wrong with the ``--json`` summary of one sample (empty = correct)."""
    problems = []
    if summary.get("succeeded") is not True:
        problems.append("succeeded is not true")
    if summary.get("timed_out") is not False:
        problems.append("timed_out is not false")
    if summary.get("tasks") != workload.tasks[scale]:
        problems.append(f"tasks {summary.get('tasks')} != {workload.tasks[scale]}")
    expected = completed_tasks(workload, scale)
    if summary.get("completed_tasks") != expected:
        problems.append(f"completed_tasks {summary.get('completed_tasks')} != {expected}")
    if summary.get("adaptations_triggered") != int(workload.adapts):
        problems.append(f"adaptations_triggered {summary.get('adaptations_triggered')}")
    failures, recoveries = summary.get("failures_injected"), summary.get("recoveries")
    if failures != recoveries or ((failures or 0) > 0) != workload.recovers:
        problems.append(f"failures_injected {failures} / recoveries {recoveries}")
    if seed == 1:
        for key, value in workload.pins[scale].items():
            if summary.get(key) != value:
                problems.append(f"seed-1 pin {key}: {summary.get(key)} != {value}")
    return problems
