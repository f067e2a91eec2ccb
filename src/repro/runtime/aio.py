"""The asyncio local runtime: one event loop, every stimulus a callback on it, no threads.

This is the proof that the enactment protocol is runtime-agnostic: the whole
driver fits in ~100 lines because everything protocol-shaped — action
dispatch, invocation lifecycle, status routing, fail-fast completion, report
rows — comes from :mod:`repro.runtime.enactment`.  What this module adds is
only the asyncio hosting decisions:

* a hosted agent is its engine record and nothing else — no Task, no Queue.
  Its broker subscription is ``loop.call_soon(stimulate, agent, deliver,
  message)``: the loop's ready queue is every agent's inbox at once, FIFO, so
  each agent sees its stimuli in arrival order and a stimulus costs one loop
  handle.  Boot is one ``call_soon`` per host, queued in host order before
  the loop turns, so it precedes every message;
* a synchronous service runs from its own callback (``call_soon``, or
  ``call_later`` after its nominal duration when ``threaded_time_scale``
  scales that in) and feeds ``complete_invocation`` in the same callback —
  agents keep exchanging messages meanwhile.  It must be quick/non-blocking:
  it runs on the loop itself (that is the no-threads trade-off; blocking
  services belong on ``threaded``);
* **async services are first-class**: a registered service callable may be
  an ``async def`` (or return any awaitable).  Only such an invocation
  becomes an :class:`asyncio.Task`, so N awaiting services genuinely overlap;
* a *stimulus* that raises — a protocol bug; a service that raises or returns
  a non-atom merely fails its task — ends the run at once: the first
  exception is kept and :meth:`AsyncioRun.run` / ``run_async`` re-raise it;
* completion, the timeout and such an exception resolve the one future the
  run awaits.  Whatever is still pending then is cancelled, and callbacks
  left on a caller's loop are no-ops.

Like the threaded runtime it is meant for functional use (examples, real
Python services, integration tests), not performance studies.  Use
:meth:`AsyncioRun.run_async` when already inside an event loop;
:meth:`AsyncioRun.run` (and the ``"asyncio"`` backend) wrap it in
:func:`asyncio.run`.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial
from typing import Any, Callable

from repro.agents.actions import Action
from repro.hocl import Atom
from repro.hoclflow.translator import encode_workflow
from repro.messaging import agent_topic
from repro.services import InvocationResult
from repro.workflow.dag import Workflow

from .config import GinFlowConfig
from .enactment import AgentHost, EnactmentEngine, MonotonicClock, PreparedInvocation, ReportAssembler
from .results import RunReport

__all__ = ["AsyncioRun", "run_asyncio"]


class AsyncioRun:
    """One asyncio execution of a workflow (single event loop, no threads)."""

    def __init__(self, workflow: Workflow, config: GinFlowConfig | None = None) -> None:
        self.workflow = workflow
        self.config = config or GinFlowConfig(mode="asyncio")
        self._engine: EnactmentEngine | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: resolved, with ``timed_out``, by whichever comes first: completion,
        #: the timeout, a stimulus that raised (kept in ``_error``)
        self._done: "asyncio.Future[bool] | None" = None
        self._error: BaseException | None = None
        #: what the end of the run cancels: the timers still running, by the id
        #: of what waits for them (a prepared invocation; the run, for its
        #: timeout), and the Tasks of awaiting services
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._tasks: "set[asyncio.Future[Any]]" = set()
        self._closed = False

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
        encoding = encode_workflow(self.workflow)
        # Same transport as the threaded runtime: the in-process broker
        # delivers synchronously, so `call_soon` lands on the loop.
        broker = self.config.build_local_broker()
        loop = self._loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        engine = self._engine = EnactmentEngine(
            config=self.config,
            encoding=encoding,
            clock=MonotonicClock(),
            transport=broker,
            invoker=self._invoke,
            on_complete=lambda _time: self._finish(),
        )
        try:
            with engine.enacting():
                stimulate, deliver, boot = self._stimulate, engine.deliver, engine.boot
                for name, task_encoding in encoding.tasks.items():
                    agent = engine.add_host(AgentHost(encoding=task_encoding, core=engine.new_core(task_encoding)))
                    broker.subscribe(agent_topic(name), partial(loop.call_soon, stimulate, agent, deliver))
                engine.subscribe_status()

                start = time.monotonic()
                for agent in engine.hosts.values():
                    loop.call_soon(stimulate, agent, boot)
                self._timers[id(self)] = loop.call_later(timeout, self._finish, True)
                timed_out = await self._done  # surfaced on the report
                if self._error is not None:
                    raise self._error
                return ReportAssembler(engine).assemble_local("asyncio", time.monotonic() - start, timed_out)
        finally:
            self._closed = True
            for pending in (*self._timers.values(), *self._tasks):
                pending.cancel()

    def _finish(self, timed_out: bool = False, error: BaseException | None = None) -> None:
        """End the wait of :meth:`run_async`; only the first call counts."""
        if not self._done.done():
            self._error = error
            self._done.set_result(timed_out)

    # -------------------------------------------------------------- stimuli
    def _stimulate(self, agent: AgentHost, stimulus: Callable[..., list[Action]], *args: Any) -> None:
        """One stimulus, one loop callback: run it, dispatch the actions it asked for."""
        if self._closed:
            return  # left on a caller's loop by a run that is over
        try:
            self._engine.dispatch(agent, stimulus(agent, *args))
        except Exception as exc:  # noqa: BLE001 - a protocol bug: ends the run, which re-raises it
            self._finish(error=exc)

    # ----------------------------------------------------------- invocation
    def _invoke(self, agent: AgentHost, prepared: PreparedInvocation) -> None:
        """Engine invoker: the service runs from a loop callback of its own, so
        concurrent agents interleave — after its nominal duration when scaled in."""
        delay = agent.encoding.duration * self.config.threaded_time_scale
        if delay > 0:
            self._timers[id(prepared)] = self._loop.call_later(delay, self._run_invocation, agent, prepared)
        else:
            self._loop.call_soon(self._run_invocation, agent, prepared)

    def _run_invocation(self, agent: AgentHost, prepared: PreparedInvocation) -> None:
        self._timers.pop(id(prepared), None)
        if self._closed:
            return
        # a raising service is converted into a failed result inside
        # PreparedInvocation.invoke, identically for every runtime
        outcome = prepared.invoke()
        if outcome.failed or isinstance(outcome.value, Atom):
            self._stimulate(agent, self._engine.complete_invocation, outcome)
        else:
            # the awaitable `checked` let through — an async service: awaited on
            # the loop, so concurrent invocations genuinely overlap, as a Task the
            # run keeps until `_service_done` has seen its outcome (so no
            # exception is lost) and cancels at its own end
            task = asyncio.ensure_future(outcome.value)
            self._tasks.add(task)
            task.add_done_callback(partial(self._service_done, agent, prepared, outcome.duration))

    def _service_done(
        self, agent: AgentHost, prepared: PreparedInvocation, duration: float, task: "asyncio.Future[Any]"
    ) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        if task.exception() is not None:  # converted into a task failure
            outcome = InvocationResult(None, duration, failed=True, error=str(task.exception()))
        else:
            outcome = prepared.checked(InvocationResult(task.result(), duration))
        self._stimulate(agent, self._engine.complete_invocation, outcome)


def run_asyncio(
    workflow: Workflow, config: GinFlowConfig | None = None, timeout: float | None = None
) -> RunReport:
    """Run ``workflow`` on the asyncio runtime — also the ``asyncio`` backend's
    entry point (``timeout`` bounds the wall-clock wait: 60 s when ``None``)."""
    return AsyncioRun(workflow, config).run(timeout=60.0 if timeout is None else timeout)
