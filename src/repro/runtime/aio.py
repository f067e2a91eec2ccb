"""The asyncio local runtime: the agent driver on the real clock, one event loop, no threads.

The driver is :class:`~repro.runtime.driver.AgentRun`'s; this module supplies
the real clock (``time.monotonic``, the driver's FIFO drained per loop turn,
the running loop's ``call_later`` past a delay):

* a hosted agent is its engine record — no Task, no Queue.  A message is an
  item of the driver's FIFO, every agent's inbox at once, and boots are
  queued first, in host order; one ``call_soon`` drains it per loop turn;
* a stimulus is served at once; a synchronous service runs at dispatch, on
  the loop (it must be quick), and its completion is one more FIFO item;
* an ``async def`` service (or any awaitable result) becomes an
  :class:`asyncio.Task`, so N awaiting services genuinely overlap;
* a *stimulus* that raises — a protocol bug; a failing service only fails its
  task — ends the run at once, and :meth:`AsyncioRun.run` / ``run_async``
  re-raise it.  Completion, the timeout or that exception resolves the one
  future the run awaits; then every agent is taken down, the FIFO emptied and
  whatever is pending cancelled, so nothing stays live on a caller's loop.

It is meant for functional use (examples, real Python services), not
performance studies, and injects no failures: a service has run before a
crash could land.  :meth:`AsyncioRun.run_async` runs inside a running loop;
:meth:`AsyncioRun.run` (and the ``"asyncio"`` backend) wrap it in
:func:`asyncio.run`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from functools import partial
from typing import Any, Callable

from repro.agents.actions import Action
from repro.services import InvocationResult
from repro.workflow.dag import Workflow

from .config import GinFlowConfig
from .driver import AgentRun
from .enactment import AgentHost, PreparedInvocation, ReportAssembler
from .results import RunReport

__all__ = ["AsyncioRun", "run_asyncio"]


class AsyncioRun(AgentRun):
    """One asyncio execution of a workflow (single event loop, no threads)."""

    now = staticmethod(time.monotonic)

    def __init__(self, workflow: Workflow, config: GinFlowConfig | None = None) -> None:
        super().__init__(workflow, config or GinFlowConfig(mode="asyncio"))
        self._loop: asyncio.AbstractEventLoop | None = None
        #: resolved, with ``timed_out``, by whichever comes first: completion,
        #: the timeout, a stimulus that raised (kept in ``_error``)
        self._done: "asyncio.Future[bool] | None" = None
        self._error: BaseException | None = None
        #: what the end of the run cancels: its timers and the Tasks of awaiting services
        self._timers: list[asyncio.TimerHandle] = []
        self._tasks: "set[asyncio.Future[Any]]" = set()
        #: every agent's inbox: ``(function, args)`` items, and the one armed drain
        self._fifo: "deque[tuple[Callable[..., Any], tuple[Any, ...]]]" = deque()
        self._drainer: asyncio.Handle | None = None

    # ------------------------------------------------------------------ run
    def run(self, timeout: float = 60.0) -> RunReport:
        """Execute the workflow in a fresh event loop (blocking entry point)."""
        reports: list[RunReport] = []

        async def main() -> None:
            # the report stays off the main task's result: restoring SIGINT,
            # `asyncio.run` formats the repr of that result — twice
            reports.append(await self.run_async(timeout=timeout))

        asyncio.run(main())
        return reports[0]

    async def run_async(self, timeout: float = 60.0) -> RunReport:
        """Execute the workflow on the current event loop."""
        loop = self._loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        engine = self._enact(self.config.build_local_broker(), on_complete=lambda _time: self._finish())
        try:
            with engine.enacting():
                self._host_agents(0.0)
                start = time.monotonic()
                self._timers.append(loop.call_later(timeout, self._finish, True))
                timed_out = await self._done  # surfaced on the report
                if self._error is not None:
                    raise self._error
                elapsed = time.monotonic() - start
                return ReportAssembler(engine).assemble(
                    mode="asyncio", executor="local", broker=self.config.broker, nodes=1,
                    deployment_time=0.0, execution_time=elapsed, makespan=elapsed, timed_out=timed_out,
                )
        finally:
            for agent in engine.hosts.values():
                agent.alive = False  # what a Task still brings it is a no-op
            self._fifo.clear()
            for pending in (*self._timers, *self._tasks):
                pending.cancel()
            if self._drainer is not None:
                self._drainer.cancel()

    def _finish(self, timed_out: bool = False, error: BaseException | None = None) -> None:
        """End the wait of :meth:`run_async`; only the first call counts."""
        if not self._done.done():
            self._error = error
            self._done.set_result(timed_out)

    # ---------------------------------------------------------------- clock
    def call_later(self, delay: float, function: Callable[..., Any], *args: Any) -> None:
        if delay > 0:
            self._timers.append(self._loop.call_later(delay, function, *args))
            return
        if not self._fifo:
            self._drainer = self._loop.call_soon(self._drain)
        self._fifo.append((function, args))

    def _inbox(self) -> Callable[..., None]:
        # the in-process broker delivers inside `publish`: the stimulus is queued in the FIFO
        return partial(self.call_later, 0, self._stimulate)

    def _drain(self) -> None:
        """Run the FIFO's items in order, those they queue included, until it is empty or the
        run is over, 64 at most per loop turn: an item count, so a run's loop turns do not depend
        on the host, and the timeout, awaiting services and a caller's coroutines wait 64 stimuli
        at most.  An item stays at the head while it runs: what it queues arms no drain."""
        fifo, over = self._fifo, self._done.done
        for _ in range(64):
            if not fifo or over():
                return
            function, args = fifo[0]
            function(*args)
            fifo.popleft()
        if fifo:
            self._drainer = self._loop.call_soon(self._drain)

    def _serve(self, agent: AgentHost, actions: list[Action], units: float, replayed: int | None = None) -> None:
        self.engine.dispatch(agent, actions)

    def _invocation_time(self, duration: float) -> float:
        return 0.0

    def _awaitable(self, agent: AgentHost, prepared: PreparedInvocation, outcome: InvocationResult) -> None:
        # awaited on the loop, so concurrent invocations genuinely overlap, as a
        # Task the run keeps until `_service_done` has seen its outcome (so no
        # exception is lost) and cancels at its own end
        task = asyncio.ensure_future(outcome.value)
        self._tasks.add(task)
        task.add_done_callback(partial(self._service_done, agent, agent.incarnation, prepared, outcome.duration))

    def _service_done(
        self, agent: AgentHost, incarnation: int, prepared: PreparedInvocation, duration: float,
        task: "asyncio.Future[Any]",
    ) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        if task.exception() is not None:  # converted into a task failure
            outcome = InvocationResult(None, duration, failed=True, error=str(task.exception()))
        else:
            outcome = prepared.checked(InvocationResult(task.result(), duration))
        self._complete_invocation(agent, incarnation, outcome)

    def _raised(self, error: Exception) -> None:
        self._finish(error=error)


def run_asyncio(
    workflow: Workflow, config: GinFlowConfig | None = None, timeout: float | None = None
) -> RunReport:
    """Run ``workflow`` on the asyncio runtime — also the ``asyncio`` backend's
    entry point (``timeout`` bounds the wall-clock wait: 60 s when ``None``)."""
    return AsyncioRun(workflow, config).run(timeout=60.0 if timeout is None else timeout)
