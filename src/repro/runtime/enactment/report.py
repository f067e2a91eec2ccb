"""Run-report assembly, for every runtime.

Both agent runtimes' :class:`~repro.runtime.results.RunReport` is built by
:class:`ReportAssembler`, so the per-task rows
(:class:`~repro.runtime.results.TaskOutcome`), the message counters and the
chemistry counters are identical across clocks by construction — the driver
only supplies what genuinely differs: the timing figures and the identity
fields of its configuration.  The centralised runtime's is built by
:func:`centralized_report` from the one interpreter's outcome.  What the
report derives from them (``succeeded``, ``results``, ...) it derives itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..results import RunReport, TaskOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executors.centralized import CentralizedOutcome

    from .engine import EnactmentEngine

__all__ = ["ReportAssembler", "centralized_report"]


def centralized_report(outcome: CentralizedOutcome, seed: int) -> RunReport:
    """The report of a centralised run: one interpreter on ``localhost``, no broker."""
    encoding = outcome.encoding
    tasks = {}
    for name in encoding.tasks:  # workflow order, replacements after, whatever the hash seed
        result = outcome.results.get(name)
        error = name in outcome.errors
        tasks[name] = TaskOutcome(
            task=name,
            state="failed" if error else ("completed" if result is not None else "idle"),
            result=result,
            error=error,
            node="localhost",
            attempts=outcome.attempts.get(name, 0),
        )
    return RunReport(
        mode="centralized",
        executor="centralized",
        broker="none",
        nodes=1,
        seed=seed,
        tasks=tasks,
        exit_tasks=encoding.exit_tasks(),
        rule_fires=outcome.report.rule_fires,
        trigger_rules=encoding.trigger_rules(local=False),
        reduction_match_attempts=outcome.report.match_attempts,
    )


class ReportAssembler:
    """Builds the run report from an engine's final state."""

    def __init__(self, engine: "EnactmentEngine") -> None:
        self.engine = engine

    def assemble(
        self,
        *,
        mode: str,
        executor: str,
        broker: str,
        nodes: int,
        deployment_time: float,
        execution_time: float,
        makespan: float,
        timed_out: bool = False,
    ) -> RunReport:
        """Fill the engine's report with the shared, runtime-agnostic rows.

        ``timed_out``: the driver stopped waiting (wall-clock timeout, virtual
        horizon) before the coordinator reported completion.
        """
        engine = self.engine
        coordinator = engine.coordinator
        report = engine.report

        report.mode = mode
        report.executor = executor
        report.broker = broker
        report.nodes = nodes
        report.seed = engine.config.seed
        report.deployment_time = deployment_time
        report.execution_time = execution_time
        report.makespan = makespan
        report.timed_out = timed_out
        report.exit_tasks = engine.encoding.exit_tasks()
        report.trigger_rules = engine.encoding.trigger_rules(local=True)
        report.messages_published = engine.transport.published_count()
        report.messages_delivered = engine.transport.delivered_count()
        report.status_updates = coordinator.status_updates

        fires = report.rule_fires
        for name, host in engine.hosts.items():
            core = host.core
            report.tasks[name] = TaskOutcome(
                task=name,
                state=core.state,
                result=core.result_value(),
                error=core.has_error(),
                node=host.node,
                started_at=host.started_at,
                finished_at=host.finished_at,
                attempts=host.attempts,
                failures=host.failures,
            )
            report.duplicate_results_ignored += core.duplicates_ignored
            report.reduction_match_attempts += core.match_attempts
            for rule_name, count in core.rule_fires.items():
                fires[rule_name] = fires.get(rule_name, 0) + count
        if engine.config.collect_timeline:
            report.timeline = list(coordinator.timeline)
        return report
