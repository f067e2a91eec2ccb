"""The threaded local runtime: real decentralised execution on one machine.

Every service agent runs in its own thread with its own inbox; agents
communicate exclusively through an in-process broker
(:class:`~repro.messaging.activemq.ActiveMQBroker` or
:class:`~repro.messaging.kafka.KafkaBroker`).  No component ever reads
another agent's state directly, so this runtime exercises the actual
decentralised protocol — the same :class:`~repro.agents.core.AgentCore`
chemistry driven by real concurrency instead of virtual time.

The protocol itself lives in the shared :mod:`repro.runtime.enactment`
engine; this module is the *driver* — it owns only the thread plumbing:
one thread + inbox per agent, a synchronous invoker running the service in
the agent's own thread, and the completion event the coordinator fires.  A
stimulus that raises (a protocol bug — a failing *service* is a task failure)
ends the run at once: the first exception is kept and :meth:`ThreadedRun.run`
re-raises it once the agent threads are joined.

It is meant for functional use (examples, integration tests, running real
Python services), not for performance studies: those use the simulated
runtime, which reproduces the paper's platform effects.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.hoclflow.translator import encode_workflow
from repro.messaging import Message, agent_topic
from repro.workflow.dag import Workflow

from .config import GinFlowConfig
from .enactment import AgentHost, EnactmentEngine, MonotonicClock, PreparedInvocation, ReportAssembler
from .results import RunReport

__all__ = ["ThreadedRun", "run_threaded"]

_POISON = object()


@dataclass
class _ThreadedAgent(AgentHost):
    """One threaded service agent: engine host + its thread and inbox."""

    inbox: "queue.Queue[Any]" = field(default_factory=queue.Queue)
    thread: threading.Thread | None = None


class ThreadedRun:
    """One threaded execution of a workflow."""

    def __init__(self, workflow: Workflow, config: GinFlowConfig | None = None) -> None:
        self.workflow = workflow
        self.config = config or GinFlowConfig(mode="threaded")
        self._engine: EnactmentEngine | None = None
        self._done = threading.Event()
        #: what agent threads raised, first first: it ends the run and ``run`` re-raises it
        self._errors: list[Exception] = []

    # ------------------------------------------------------------------ run
    def run(self, timeout: float = 60.0) -> RunReport:
        """Execute the workflow; ``timeout`` bounds the wall-clock wait."""
        encoding = encode_workflow(self.workflow)
        broker = self.config.build_local_broker()
        engine = EnactmentEngine(
            config=self.config,
            encoding=encoding,
            clock=MonotonicClock(),
            transport=broker,
            invoker=self._invoke,
            on_complete=lambda _time: self._done.set(),
        )
        self._engine = engine
        with engine.enacting():
            for name, task_encoding in encoding.tasks.items():
                agent = engine.add_host(_ThreadedAgent(encoding=task_encoding, core=engine.new_core(task_encoding)))
                broker.subscribe(agent_topic(name), agent.inbox.put)
            engine.subscribe_status()

            start = time.monotonic()
            for agent in engine.hosts.values():
                agent.thread = threading.Thread(
                    target=self._agent_loop, args=(agent,), daemon=True, name=f"sa-{agent.name}"
                )
                agent.thread.start()

            completed = self._done.wait(timeout=timeout)
            # shut the agent threads down
            for agent in engine.hosts.values():
                agent.inbox.put(_POISON)
            for agent in engine.hosts.values():
                if agent.thread is not None:
                    agent.thread.join(timeout=2.0)
            if self._errors:
                raise self._errors[0]
            return ReportAssembler(engine).assemble_local("threaded", time.monotonic() - start, not completed)

    # ----------------------------------------------------------- agent loop
    def _agent_loop(self, agent: _ThreadedAgent) -> None:
        engine = self._engine
        try:
            engine.dispatch(agent, engine.boot(agent))
            while not self._done.is_set():
                try:
                    item = agent.inbox.get(timeout=0.1)
                except queue.Empty:
                    continue
                if item is _POISON:
                    return
                message: Message = item
                engine.dispatch(agent, engine.deliver(agent, message))
        except Exception as error:  # noqa: BLE001 - a protocol bug: ends the run, which re-raises it
            self._errors.append(error)
            self._done.set()

    # ----------------------------------------------------------- invocation
    def _invoke(self, agent: _ThreadedAgent, prepared: PreparedInvocation) -> None:
        """Engine invoker: run the service synchronously in the agent's thread."""
        if self.config.threaded_time_scale > 0 and agent.encoding.duration > 0:
            time.sleep(agent.encoding.duration * self.config.threaded_time_scale)
        outcome = prepared.invoke()
        engine = self._engine
        engine.dispatch(agent, engine.complete_invocation(agent, outcome))


def run_threaded(
    workflow: Workflow, config: GinFlowConfig | None = None, timeout: float | None = None
) -> RunReport:
    """Run ``workflow`` on the threaded runtime — also the ``threaded`` backend's
    entry point (``timeout`` bounds the wall-clock wait: 60 s when ``None``)."""
    return ThreadedRun(workflow, config).run(timeout=60.0 if timeout is None else timeout)
