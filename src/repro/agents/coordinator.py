"""The shared-space coordinator.

In GinFlow the multiset also acts as the observable status of the workflow:
"It also sends a message to the multiset so as to update the status of the
workflow" (Section IV-A).  The :class:`Coordinator` plays that role in both
runtimes: it consumes ``STATUS`` messages, maintains the last known state of
every task, detects workflow completion (every exit task holds a result) and
records a timeline of events for the run report.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.records import Record

__all__ = ["TaskStatus", "TimelineEvent", "Coordinator"]


class TaskStatus(Record):
    """Last known status of one task, as seen by the shared space."""

    __slots__ = ("task", "state", "has_result", "has_error", "updates", "last_update_time")

    def __init__(
        self, task: str, state: str = "unknown", has_result: bool = False, has_error: bool = False,
        updates: int = 0, last_update_time: float = 0.0,
    ):
        self.task, self.state, self.has_result, self.has_error = task, state, has_result, has_error
        self.updates, self.last_update_time = updates, last_update_time


class TimelineEvent(Record):
    """One entry of the run timeline."""

    __slots__ = ("time", "task", "event", "detail")

    def __init__(self, time: float, task: str, event: str, detail: str = ""):
        self.time, self.task, self.event, self.detail = time, task, event, detail


class Coordinator:
    """Tracks workflow status from agents' updates and detects completion.

    The run *completes* either when every exit task holds a result
    (``succeeded`` is then ``True``) or — fail-fast — as soon as an exit
    task reports a terminal ``ERROR``: one it holds itself and that no
    adaptation can repair (``succeeded`` is then ``False``).  Tasks listed
    in ``adaptable_tasks`` (their failure triggers an adaptation plan) never
    fail the run: their ERROR starts the recovery instead of ending it.
    """

    def __init__(
        self,
        exit_tasks: list[str],
        on_complete: Callable[[float], None] | None = None,
        adaptable_tasks: set[str] | None = None,
    ) -> None:
        if not exit_tasks:
            raise ValueError("the coordinator needs at least one exit task")
        self.exit_tasks = list(exit_tasks)
        self.on_complete = on_complete
        self.adaptable_tasks = set(adaptable_tasks or ())
        #: the exits, and those holding a result: kept by `record_status`, so an
        #: update costs O(1) however many exits there are
        self._exits = frozenset(self.exit_tasks)
        self._holding: set[str] = set()
        self.statuses: dict[str, TaskStatus] = {}
        self.timeline: list[TimelineEvent] = []
        self.completed = False
        self.succeeded = False
        self.completion_time: float | None = None
        self.status_updates = 0

    # -------------------------------------------------------------- updates
    def record_status(self, task: str, status: dict[str, Any], time: float = 0.0) -> None:
        """Apply one ``STATUS`` payload coming from an agent."""
        self.status_updates += 1
        entry = self.statuses.get(task)
        if entry is None:
            entry = self.statuses[task] = TaskStatus(task=task)
        previous_state = entry.state
        entry.state = str(status.get("state", entry.state))
        entry.has_result = bool(status.get("has_result", entry.has_result))
        entry.has_error = bool(status.get("has_error", entry.has_error))
        entry.updates += 1
        entry.last_update_time = time
        if entry.state != previous_state:
            self.record_event(time, task, entry.state)
        if task in self._exits:
            (self._holding.add if entry.has_result else self._holding.discard)(task)
            self._check_completion(task, entry, time)

    def record_event(self, time: float, task: str, event: str, detail: str = "") -> None:
        """Append an arbitrary event to the timeline (failures, recoveries...)."""
        self.timeline.append(TimelineEvent(time=time, task=task, event=event, detail=detail))

    # ----------------------------------------------------------- completion
    def _check_completion(self, task: str, entry: TaskStatus, time: float) -> None:
        """After an update of exit ``task``: an exit's terminal error can only
        arise at its own update, which completes the run at once."""
        if self.completed:
            return
        if entry.has_error and not entry.has_result and task not in self.adaptable_tasks:
            # Terminal exit-task error: fail fast instead of blocking
            # until timeout (asyncio) or draining the queue (simulated).
            self._finish(time, succeeded=False)
        elif len(self._holding) == len(self._exits):
            self._finish(time, succeeded=True)

    def _finish(self, time: float, succeeded: bool) -> None:
        self.completed = True
        self.succeeded = succeeded
        self.completion_time = time
        if self.on_complete is not None:
            self.on_complete(time)

    # -------------------------------------------------------------- queries
    def task_state(self, task: str) -> str:
        """Last known state of ``task`` (``"unknown"`` before any update)."""
        status = self.statuses.get(task)
        return status.state if status else "unknown"

    def tasks_in_state(self, state: str) -> list[str]:
        """Every task whose last known state is ``state``."""
        return [name for name, status in self.statuses.items() if status.state == state]

    def error_tasks(self) -> list[str]:
        """Tasks whose last update reported an ``ERROR`` result."""
        return [name for name, status in self.statuses.items() if status.has_error]

    def progress(self) -> float:
        """Fraction of known tasks holding a result (coarse progress metric)."""
        if not self.statuses:
            return 0.0
        done = sum(1 for status in self.statuses.values() if status.has_result)
        return done / len(self.statuses)
