"""The asyncio local runtime: one event loop, agents as tasks, no threads.

This is the proof that the enactment protocol is runtime-agnostic: the whole
driver fits in ~100 lines because everything protocol-shaped — action
dispatch, invocation lifecycle, status routing, fail-fast completion, report
rows — comes from :mod:`repro.runtime.enactment`.  What this module adds is
only the asyncio hosting decisions:

* every service agent is an :class:`asyncio.Task` draining its own
  :class:`asyncio.Queue` (the broker subscription is ``put_nowait``);
* service invocations run as separate tasks on the same loop, so agents
  keep exchanging messages while a service awaits its nominal duration —
  real-service concurrency without a single thread;
* **async services are first-class**: a registered service callable may be
  an ``async def`` (or return any awaitable) — its coroutine is awaited on
  the loop, so N awaiting services genuinely overlap.  Plain synchronous
  services must be quick/non-blocking: they run on the loop itself (that
  is the no-threads trade-off; blocking services belong on ``threaded``);
* completion is an :class:`asyncio.Event` fired by the coordinator.

Like the threaded runtime it is meant for functional use (examples, real
Python services, integration tests), not performance studies.  Use
:meth:`AsyncioRun.run_async` when already inside an event loop;
:meth:`AsyncioRun.run` (and the ``"asyncio"`` backend) wrap it in
:func:`asyncio.run`.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from dataclasses import dataclass, replace
from typing import Any

from repro.hoclflow.translator import encode_workflow
from repro.messaging import agent_topic
from repro.obs.logs import get_logger
from repro.workflow.dag import Workflow

from .config import GinFlowConfig
from .enactment import AgentHost, EnactmentEngine, MonotonicClock, PreparedInvocation, ReportAssembler
from .results import RunReport

__all__ = ["AsyncioRun", "run_asyncio"]

_POISON: Any = object()

logger = get_logger("runtime.aio")


@dataclass
class _AsyncAgent(AgentHost):
    """One asyncio service agent: engine host + its task and queue."""

    queue: "asyncio.Queue[Any] | None" = None
    task: "asyncio.Task | None" = None
    #: serializes this agent's stimuli when they are offloaded to the
    #: reduction pool (the agent loop and an invocation-completion task
    #: would otherwise interleave once off the loop thread); ``None``
    #: without a pool
    lock: "asyncio.Lock | None" = None


class AsyncioRun:
    """One asyncio execution of a workflow (single event loop, no threads)."""

    def __init__(self, workflow: Workflow, config: GinFlowConfig | None = None) -> None:
        self.workflow = workflow
        self.config = config or GinFlowConfig(mode="asyncio")
        self._engine: EnactmentEngine | None = None
        self._done: asyncio.Event | None = None
        self._invocations: set[asyncio.Task] = set()
        self._reducer = None

    # ------------------------------------------------------------------ run
    def run(self, timeout: float = 60.0) -> RunReport:
        """Execute the workflow in a fresh event loop (blocking entry point)."""
        return asyncio.run(self.run_async(timeout=timeout))

    async def run_async(self, timeout: float = 60.0) -> RunReport:
        """Execute the workflow on the current event loop."""
        encoding = encode_workflow(self.workflow)
        # Same transport as the threaded runtime: the in-process broker
        # delivers synchronously, so `put_nowait` lands on the loop.
        broker = self.config.build_local_broker()
        self._done = asyncio.Event()
        engine = EnactmentEngine(
            config=self.config,
            encoding=encoding,
            clock=MonotonicClock(),
            transport=broker,
            invoker=self._invoke,
            on_complete=lambda _time: self._done.set(),
        )
        self._engine = engine

        # Under a parallel policy, whole stimuli (boot/deliver/completion)
        # run on the reducer's thread pool via `run_async`, so the CPU-heavy
        # reductions of different agents genuinely overlap while the loop
        # stays free.  The engine already supports concurrent per-agent
        # stimuli (the threaded runtime drives it that way); the per-agent
        # lock keeps each *single* agent's stimuli serialized.  The core
        # gets the policy (for batch engines) but no nested reducer.
        self._reducer = engine.policy.make_reducer()
        for name, task_encoding in encoding.tasks.items():
            agent = engine.add_host(
                _AsyncAgent(
                    encoding=task_encoding,
                    core=engine.new_core(task_encoding),
                )
            )
            agent.queue = asyncio.Queue()
            if self._reducer is not None:
                agent.lock = asyncio.Lock()
            broker.subscribe(agent_topic(name), agent.queue.put_nowait)
        engine.subscribe_status()

        start = time.monotonic()
        with engine.enacting():
            for agent in engine.hosts.values():
                agent.task = asyncio.create_task(self._agent_loop(agent), name=f"sa-{agent.name}")
            timed_out = False
            try:
                await asyncio.wait_for(self._done.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                timed_out = True  # surfaced on the report
            # shut the agent tasks down, then drop any still-pending invocation
            for agent in engine.hosts.values():
                agent.queue.put_nowait(_POISON)
            outcomes = await asyncio.gather(
                *(agent.task for agent in engine.hosts.values()), return_exceptions=True
            )
            for agent, outcome in zip(engine.hosts.values(), outcomes):
                if isinstance(outcome, BaseException) and not isinstance(outcome, asyncio.CancelledError):
                    # an agent task died on a protocol bug: surface the traceback
                    # (mirrors the threaded runtime's thread excepthook output)
                    logger.error(
                        "exception in asyncio agent task %r:", agent.name, exc_info=outcome
                    )
            for pending in list(self._invocations):
                pending.cancel()
        if self._reducer is not None:
            self._reducer.shutdown()
            self._reducer = None
        return ReportAssembler(engine).assemble_local("asyncio", time.monotonic() - start, timed_out)

    # ----------------------------------------------------------- agent loop
    async def _stimulate(self, agent: _AsyncAgent, fn: Any, *args: Any) -> Any:
        """Run one engine stimulus, offloaded to the reduction pool if any.

        Dispatch stays on the loop (it creates tasks and posts to the
        broker); only the stimulus itself — which ends in the agent's HOCL
        reduction — moves to the pool.
        """
        if self._reducer is None:
            return fn(agent, *args)
        async with agent.lock:
            return await self._reducer.run_async(fn, agent, *args)

    async def _agent_loop(self, agent: _AsyncAgent) -> None:
        engine = self._engine
        engine.dispatch(agent, await self._stimulate(agent, engine.boot))
        while True:
            message = await agent.queue.get()
            if message is _POISON:
                return
            engine.dispatch(agent, await self._stimulate(agent, engine.deliver, message))

    # ----------------------------------------------------------- invocation
    def _invoke(self, agent: _AsyncAgent, prepared: PreparedInvocation) -> None:
        """Engine invoker: run the invocation as its own task on the loop."""
        task = asyncio.create_task(self._run_invocation(agent, prepared), name=f"invoke-{agent.name}")
        self._invocations.add(task)
        task.add_done_callback(self._on_invocation_done)

    def _on_invocation_done(self, task: "asyncio.Task") -> None:
        """Retrieve every invocation task's outcome so no exception is lost.

        Service-level failures are already converted into failed
        ``InvocationResult``s inside :meth:`_run_invocation`; anything left
        here is a protocol bug in the dispatch itself, which must be surfaced
        (an unretrieved task exception would otherwise vanish into asyncio's
        garbage-collection warning and the run would hang until timeout).
        """
        self._invocations.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            logger.error(
                "exception in asyncio invocation task %r:", task.get_name(), exc_info=exc
            )

    async def _run_invocation(self, agent: _AsyncAgent, prepared: PreparedInvocation) -> None:
        scale = self.config.threaded_time_scale
        if scale > 0 and agent.encoding.duration > 0:
            await asyncio.sleep(agent.encoding.duration * scale)
        else:
            await asyncio.sleep(0)  # yield so concurrent agents interleave
        # a raising service is converted into a failed result inside
        # PreparedInvocation.invoke, identically for every runtime
        outcome = prepared.invoke()
        if inspect.isawaitable(outcome.value):
            # async service: the callable returned a coroutine — await it on
            # the loop so concurrent invocations genuinely overlap
            try:
                value = await outcome.value
            except Exception as exc:  # noqa: BLE001 - converted into a task failure
                outcome = replace(outcome, value=None, failed=True, error=str(exc))
            else:
                outcome = prepared.checked(replace(outcome, value=value))
        engine = self._engine
        engine.dispatch(agent, await self._stimulate(agent, engine.complete_invocation, outcome))


def run_asyncio(
    workflow: Workflow, config: GinFlowConfig | None = None, timeout: float | None = None
) -> RunReport:
    """Run ``workflow`` on the asyncio runtime — also the ``asyncio`` backend's
    entry point (``timeout`` bounds the wall-clock wait: 60 s when ``None``)."""
    return AsyncioRun(workflow, config).run(timeout=60.0 if timeout is None else timeout)
