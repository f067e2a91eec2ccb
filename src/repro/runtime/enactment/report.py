"""Shared run-report assembly.

Every runtime's :class:`~repro.runtime.results.RunReport` is built here, so
the per-task rows (:class:`~repro.runtime.results.TaskOutcome`), the message
counters and the chemistry aggregates are identical across runtimes by
construction — the driver only supplies what genuinely differs: the timing
figures and the identity fields of its configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..results import RunReport, TaskOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import EnactmentEngine

__all__ = ["ReportAssembler"]


class ReportAssembler:
    """Builds the run report from an engine's final state."""

    def __init__(self, engine: "EnactmentEngine") -> None:
        self.engine = engine

    def assemble_local(self, mode: str, elapsed: float, timed_out: bool) -> RunReport:
        """The report of a wall-clock run on this machine (threaded, asyncio)."""
        return self.assemble(
            mode=mode,
            executor="local",
            broker=self.engine.config.broker,
            nodes=1,
            deployment_time=0.0,
            execution_time=elapsed,
            makespan=elapsed,
            timed_out=timed_out,
        )

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
        # a cut-off run must never read like a successful one
        report.timed_out = timed_out
        report.succeeded = coordinator.succeeded and not timed_out
        report.messages_published = engine.transport.published_count()
        report.messages_delivered = engine.transport.delivered_count()
        report.adaptations_triggered = len(engine.triggered_adaptations)

        exit_tasks = set(engine.encoding.exit_tasks())
        for name, host in engine.hosts.items():
            core = host.core
            outcome = TaskOutcome(
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
            report.tasks[name] = outcome
            report.duplicate_results_ignored += core.duplicates_ignored
            report.reduction_reactions += core.reactions
            report.reduction_match_attempts += core.match_attempts
            fires = report.extra.setdefault("rule_fires", {})
            for rule_name, count in core.rule_fires.items():
                fires[rule_name] = fires.get(rule_name, 0) + count
            registered = report.extra.setdefault("rules_registered", [])
            for rule_name in core.rule_names:
                if rule_name not in registered:
                    registered.append(rule_name)
            if name in exit_tasks and outcome.result is not None:
                report.results[name] = outcome.result
        timings = engine.reduction_timings()
        if timings is not None:
            report.extra["reduction_timings"] = timings
        if engine.config.collect_timeline:
            report.timeline = list(coordinator.timeline)
        if engine.obs is not None and engine.obs.metrics is not None:
            report.extra["metrics"] = engine.obs.metrics.snapshot()
        return report
