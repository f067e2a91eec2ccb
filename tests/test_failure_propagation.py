"""End-to-end failure propagation through the simulation kernel into sweeps.

A fault injected by :class:`repro.services.FailureModel` fails the
invocation it hits; a join over a batch of invocations must observe that
failure, and the failure must surface in the
:class:`~repro.experiments.report.SweepReport` rows — a join that recorded
the exception object as a plain value and still succeeded would make
fault-injection sweeps silently report success.
"""

from __future__ import annotations

from repro.experiments import Experiment
from repro.runtime import GinFlowConfig
from repro.simkernel import RandomStreams, Simulator


class _Join:
    """Completes once every member reported success; the first failure wins."""

    def __init__(self, members: int) -> None:
        self.values: list[object] = [None] * members
        self.pending = members
        self.error: BaseException | None = None

    def succeed(self, index: int, value: object) -> None:
        if self.error is None:
            self.values[index] = value
            self.pending -= 1

    def fail(self, error: BaseException) -> None:
        if self.error is None:
            self.error = error

    @property
    def succeeded(self) -> bool:
        return self.error is None and self.pending == 0


def _stage_runner(workflow, config, cell):
    """Simulate one parallel stage of invocations and join them.

    Every task's invocation ends in one timed call; the cell's failure model
    decides (seeded — never by peeking at agent state) whether the invocation
    crashes, in which case that call *fails* the join instead of completing
    its member.  The row only learns about faults through the join.
    """
    sim = Simulator()
    randomness = RandomStreams(config.seed)
    model = config.failures
    task_count = int(cell.get("tasks", 8))
    durations = [30.0 + 10.0 * index for index in range(task_count)]

    join = _Join(task_count)
    injected = 0
    for index, duration in enumerate(durations):
        crash_after = model.crash_time(duration, randomness, label=f"crash:{index}")
        if crash_after is not None:
            injected += 1
            sim.call_in(crash_after, join.fail, RuntimeError(f"task-{index} crashed"))
        else:
            sim.call_in(duration, join.succeed, index, f"task-{index} done")
    sim.run()
    assert join.succeeded == all(isinstance(value, str) for value in join.values)
    return {
        "succeeded": join.succeeded,
        "surfaced_error": str(join.error) if join.error is not None else None,
        "failures": injected,
    }


class TestFailureSurfacesInSweeps:
    def _sweep(self):
        experiment = Experiment(
            name="failure-propagation",
            grid={"failure_probability": [0.0, 0.9]},
            config=GinFlowConfig(seed=7, broker="kafka"),
            repeats=3,
            runner=_stage_runner,
        )
        return experiment.run()

    def test_faults_fail_the_join_and_reach_the_report(self):
        report = self._sweep()
        rows = report.rows
        assert len(rows) == 6
        clean = [row for row in rows if row["failure_probability"] == 0.0]
        faulty = [row for row in rows if row["failure_probability"] == 0.9]
        # no injected fault: the join succeeds and reports no failures
        assert all(row["succeeded"] and row["failures"] == 0 for row in clean)
        # p=0.9 over 8 exposed tasks: every seeded repeat injects faults
        assert all(row["failures"] > 0 for row in faulty)
        # and every injected fault surfaces: the join must fail — never
        # succeed with an exception object among its values
        for row in faulty:
            assert not row["succeeded"]
            assert row["surfaced_error"] and "crashed" in row["surfaced_error"]

    def test_failures_aggregate_per_cell(self):
        report = self._sweep()
        cells = report.cells(metrics=("failures",))
        by_p = {cell["failure_probability"]: cell for cell in cells}
        assert by_p[0.0]["failures_mean"] == 0.0
        assert by_p[0.9]["failures_mean"] > 0.0
