"""Run reports: what a GinFlow execution returns.

A :class:`RunReport` aggregates everything the experiments need: whether the
workflow completed, how long deployment and execution took, per-task results
and states, message / failure / adaptation counters, and (optionally) the
full event timeline.
"""

from __future__ import annotations

from typing import Any

from repro.agents.coordinator import TimelineEvent
from repro.records import Record

__all__ = ["TaskOutcome", "RunReport"]


class TaskOutcome(Record):
    """Final state of one task after the run."""

    __slots__ = ("task", "state", "result", "error", "node", "started_at", "finished_at", "attempts", "failures")

    def __init__(
        self, task: str, state: str, result: Any = None, error: bool = False, node: str | None = None,
        started_at: float | None = None, finished_at: float | None = None, attempts: int = 0, failures: int = 0,
    ):
        self.task, self.state, self.result, self.error, self.node = task, state, result, error, node
        self.started_at, self.finished_at, self.attempts, self.failures = started_at, finished_at, attempts, failures


class RunReport(Record):
    """Outcome of one GinFlow run (any execution mode).

    Each fact is stored once; ``succeeded``, ``results``,
    ``reduction_reactions`` and ``adaptations_triggered`` are derived from
    the stored ones here, the same way for every runtime.

    Attributes
    ----------
    timed_out:
        ``True`` when a runtime stopped waiting (wall-clock timeout, virtual
        horizon) before the coordinator reported completion.  A timed-out
        run never reports ``succeeded=True``: the report rows describe an
        execution that was cut off, not one that converged.
    mode / executor / broker / nodes / seed:
        Echo of the configuration actually used.
    deployment_time:
        Time spent provisioning the service agents (0 for centralised and
        asyncio runs).
    execution_time:
        Time between the start of the enactment (all agents ready) and the
        completion of the last exit task.
    makespan:
        ``deployment_time + execution_time``.
    tasks:
        Per-task outcomes.
    exit_tasks:
        The workflow's exit tasks, whose rows hold what it "returns".
    messages_published / messages_delivered:
        Broker counters.
    failures_injected / recoveries:
        Failure-injection counters (Fig. 16).
    duplicate_results_ignored:
        Duplicates discarded by destination agents (recovery replays).
    rule_fires:
        Firings per rule name, summed over every agent's (or the one
        interpreter's) reductions.
    trigger_rules:
        Per adaptation, the names of the rules whose firing triggers it on
        this runtime.
    reduction_match_attempts:
        Match searches, summed like ``rule_fires``.
    status_updates:
        ``STATUS`` updates the coordinator folded in (agent runtimes).
    virtual_events:
        Kernel entries the simulated runtime processed (0 elsewhere).
    timeline:
        Chronological event list (state changes, failures, recoveries).
    """

    __slots__ = (
        "timed_out", "mode", "executor", "broker", "nodes", "seed", "deployment_time", "execution_time", "makespan",
        "tasks", "exit_tasks", "messages_published", "messages_delivered", "failures_injected", "recoveries",
        "duplicate_results_ignored", "rule_fires", "trigger_rules", "reduction_match_attempts", "status_updates",
        "virtual_events", "timeline",
    )

    def __init__(
        self, timed_out: bool = False, mode: str = "simulated", executor: str = "ssh", broker: str = "activemq",
        nodes: int = 0, seed: int = 0, deployment_time: float = 0.0, execution_time: float = 0.0,
        makespan: float = 0.0, tasks: dict[str, TaskOutcome] | None = None, exit_tasks: list[str] | None = None,
        messages_published: int = 0, messages_delivered: int = 0, failures_injected: int = 0, recoveries: int = 0,
        duplicate_results_ignored: int = 0, rule_fires: dict[str, int] | None = None,
        trigger_rules: dict[str, list[str]] | None = None, reduction_match_attempts: int = 0,
        status_updates: int = 0, virtual_events: int = 0, timeline: list[TimelineEvent] | None = None,
    ):
        self.timed_out, self.mode, self.executor, self.broker = timed_out, mode, executor, broker
        self.nodes, self.seed, self.deployment_time = nodes, seed, deployment_time
        self.execution_time, self.makespan = execution_time, makespan
        self.tasks: dict[str, TaskOutcome] = {} if tasks is None else tasks
        self.exit_tasks: list[str] = [] if exit_tasks is None else exit_tasks
        self.messages_published, self.messages_delivered = messages_published, messages_delivered
        self.failures_injected, self.recoveries = failures_injected, recoveries
        self.duplicate_results_ignored = duplicate_results_ignored
        self.rule_fires: dict[str, int] = {} if rule_fires is None else rule_fires
        self.trigger_rules: dict[str, list[str]] = {} if trigger_rules is None else trigger_rules
        self.reduction_match_attempts = reduction_match_attempts
        self.status_updates, self.virtual_events = status_updates, virtual_events
        self.timeline: list[TimelineEvent] = [] if timeline is None else timeline

    # ----------------------------------------------------------- derived
    @property
    def succeeded(self) -> bool:
        """Not timed out, and every exit task holds a (non-error) result."""
        return not self.timed_out and all(self.result_of(name) is not None for name in self.exit_tasks)

    @property
    def results(self) -> dict[str, Any]:
        """Exit-task results (what the workflow "returns")."""
        results = {name: self.result_of(name) for name in self.exit_tasks}
        return {name: value for name, value in results.items() if value is not None}

    @property
    def reduction_reactions(self) -> int:
        """Rule firings in all: the sum of ``rule_fires``."""
        return sum(self.rule_fires.values())

    @property
    def adaptations_triggered(self) -> int:
        """Adaptations one of whose trigger rules fired."""
        fires = self.rule_fires
        return sum(any(fires.get(rule) for rule in rules) for rules in self.trigger_rules.values())

    # ------------------------------------------------------------- queries
    def task_outcome(self, name: str) -> TaskOutcome:
        """Outcome of task ``name`` (raises ``KeyError`` if unknown)."""
        return self.tasks[name]

    def result_of(self, name: str) -> Any:
        """Result value of task ``name`` (``None`` if it produced none)."""
        outcome = self.tasks.get(name)
        return outcome.result if outcome else None

    def failed_tasks(self) -> list[str]:
        """Tasks whose final state reports an error."""
        return [name for name, outcome in self.tasks.items() if outcome.error]

    def completed_tasks(self) -> list[str]:
        """Tasks holding a (non-error) result at the end of the run."""
        return [name for name, outcome in self.tasks.items() if outcome.result is not None]

    def summary(self) -> dict[str, Any]:
        """A flat dictionary convenient for tabular reporting."""
        return {
            "succeeded": self.succeeded,
            "timed_out": self.timed_out,
            "mode": self.mode,
            "executor": self.executor,
            "broker": self.broker,
            "nodes": self.nodes,
            "seed": self.seed,
            "deployment_time": round(self.deployment_time, 3),
            "execution_time": round(self.execution_time, 3),
            "makespan": round(self.makespan, 3),
            "tasks": len(self.tasks),
            "completed_tasks": len(self.completed_tasks()),
            "messages_published": self.messages_published,
            "failures_injected": self.failures_injected,
            "recoveries": self.recoveries,
            "adaptations_triggered": self.adaptations_triggered,
        }

    def format_summary(self) -> str:
        """Human-readable multi-line summary (used by the CLI)."""
        lines = [f"GinFlow run ({self.mode}, executor={self.executor}, broker={self.broker})"]
        lines.append(f"  succeeded          : {self.succeeded}")
        if self.timed_out:
            lines.append("  timed out          : True")
        lines.append(f"  deployment time    : {self.deployment_time:.3f} s")
        lines.append(f"  execution time     : {self.execution_time:.3f} s")
        lines.append(f"  makespan           : {self.makespan:.3f} s")
        lines.append(f"  tasks              : {len(self.completed_tasks())}/{len(self.tasks)} completed")
        lines.append(f"  messages published : {self.messages_published}")
        if self.failures_injected or self.recoveries:
            lines.append(f"  failures/recoveries: {self.failures_injected}/{self.recoveries}")
        if self.adaptations_triggered:
            lines.append(f"  adaptations        : {self.adaptations_triggered}")
        if self.results:
            lines.append("  exit results       :")
            for task, value in sorted(self.results.items()):
                lines.append(f"    {task}: {value!r}")
        return "\n".join(lines)
