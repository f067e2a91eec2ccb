"""One agent driver, two clocks: the life of every hosted service agent, written once.

The paper enacts a workflow with one decentralised chemistry however its
service agents are hosted (Section IV), and rebuilds a crashed agent by
replaying its log (Section IV-B).  :class:`AgentRun` is the driver of that
protocol for both clocks the agents run on.  It owns:

* **hosting** — one engine record, core and broker subscription per task,
  then every agent's boot, queued on the clock;
* **stimuli** — a boot, a delivered message or an invocation's outcome runs
  on a live agent, and the actions it asked for dispatch once the clock has
  served the stimulus, if the agent has not crashed in between;
* **invocations** — the service runs at dispatch, and its completion is fed
  back after the clock's invocation time, unless a
  :class:`~repro.services.FailureModel` crash comes first;
* **crash and recovery** — a crashed agent stays down for the failure model's
  recovery delay, then :meth:`EnactmentEngine.recover` rebuilds it from the
  broker's log, and the actions of that boot-and-replay are served like a
  stimulus's.

An :class:`AgentRun` is also the engine's clock.  A subclass supplies what
only the clock decides (the *clock* methods below), may replace how an agent
is hosted and receives a message (``_new_host``, ``_inbox``), and owns its
set-up and report fields: :class:`~repro.runtime.simulation.SimulatedRun` is
the virtual clock, :class:`~repro.runtime.aio.AsyncioRun` the real one.
Nothing here asks which clock it runs on, and nothing imports asyncio.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.agents.actions import Action
from repro.hocl import Atom
from repro.hoclflow.translator import TaskEncoding, encode_workflow
from repro.services import InvocationResult
from repro.simkernel import RandomStreams
from repro.workflow.dag import Workflow

from .config import GinFlowConfig
from .enactment import AgentHost, EnactmentEngine, PreparedInvocation, Transport

__all__ = ["AgentRun"]


class AgentRun:
    """One run of a workflow's service agents on one clock (subclasses supply the clock)."""

    #: the run's engine, built by :meth:`_enact`
    engine: EnactmentEngine

    def __init__(self, workflow: Workflow, config: GinFlowConfig) -> None:
        self.workflow = workflow
        self.config = config
        self.randomness = RandomStreams(config.seed)
        #: the failure model, when it can crash anything
        self._failures = config.failures if config.failures.enabled else None

    # ------------------------------------------- clock (what a subclass supplies)
    def now(self) -> float:
        """The clock's current time, in seconds (the engine's timestamps)."""
        raise NotImplementedError

    def call_later(self, delay: float, function: Callable[..., Any], *args: Any) -> None:
        """Run ``function(*args)`` once ``delay`` seconds of this clock have passed."""
        raise NotImplementedError

    def _serve(self, agent: AgentHost, actions: list[Action], units: float, replayed: int | None = None) -> None:
        """Dispatch ``actions`` once the clock has served the stimulus that asked for
        them: ``units`` of reduction, after a boot and the replay of ``replayed``
        logged messages when the stimulus rebuilt a crashed agent."""
        raise NotImplementedError

    def _invocation_time(self, duration: float) -> float:
        """How long after dispatch an invocation of nominal ``duration`` completes."""
        raise NotImplementedError

    def _awaitable(
        self, agent: AgentHost, prepared: PreparedInvocation, outcome: InvocationResult
    ) -> InvocationResult | None:
        """The outcome of a service that returned an awaitable, or ``None`` when
        the clock awaits it and completes the invocation itself."""
        raise NotImplementedError

    def _raised(self, error: Exception) -> None:
        """End the run on ``error``, raised by a stimulus (a protocol bug): by
        default it propagates to whatever ran the stimulus."""
        raise error

    # -------------------------------------------------------------- hosting
    def _enact(self, transport: Transport, on_complete: Callable[[float], None] | None = None) -> EnactmentEngine:
        """The run's engine over ``transport``, with this run as its clock and invoker."""
        self.engine = EnactmentEngine(
            config=self.config, encoding=encode_workflow(self.workflow), clock=self, transport=transport,
            invoker=self._invoke, on_complete=on_complete,
        )
        return self.engine

    def _new_host(self, encoding: TaskEncoding) -> AgentHost:
        """The record hosting the agent of ``encoding``."""
        return AgentHost(encoding=encoding, core=self.engine.new_core(encoding))

    def _inbox(self) -> Callable[..., None]:
        """What a delivered message is handed to, with its agent and the deliver
        stimulus: the stimulus runs at once (the transport delivers on the clock)."""
        return self._stimulate

    def _host_agents(self, boot_delay: float) -> None:
        """Host and subscribe every agent, then queue each boot ``boot_delay`` seconds ahead."""
        engine = self.engine
        # bound once: one partial per agent's subscription, no method object per agent
        inbox, deliver, stimulate, boot = self._inbox(), engine.deliver, self._stimulate, engine.boot
        for name, encoding in engine.encoding.tasks.items():
            agent = engine.add_host(self._new_host(encoding))
            engine.transport.subscribe(engine.topics[name], partial(inbox, agent, deliver))
        engine.subscribe_status()
        for agent in engine.hosts.values():
            self.call_later(boot_delay, stimulate, agent, boot)

    # -------------------------------------------------------------- stimuli
    def _stimulate(self, agent: AgentHost, stimulus: Callable[..., list[Action]], *args: Any) -> None:
        """Run ``stimulus(agent, *args)`` on a live agent and have the clock serve it.

        A message for an agent that is down is dropped: a persistent broker
        keeps it in its log, and the recovery replay delivers it."""
        if agent.alive:
            core = agent.core
            units = core.reduction_units
            try:
                actions = stimulus(agent, *args)
                self._serve(agent, actions, core.reduction_units - units)
            except Exception as error:  # noqa: BLE001 - a protocol bug: the clock ends the run on it
                self._raised(error)

    def _dispatch(self, agent: AgentHost, actions: list[Action], incarnation: int) -> None:
        """Dispatch served actions, unless their agent crashed since it asked for them."""
        if agent.alive and agent.incarnation == incarnation:
            self.engine.dispatch(agent, actions)

    # ----------------------------------------------------------- invocation
    def _invoke(self, agent: AgentHost, prepared: PreparedInvocation) -> None:
        """Engine invoker: the service runs now; its completion comes back after the
        clock's invocation time, unless the failure model crashes the agent first."""
        outcome = prepared.invoke()
        if not (outcome.failed or isinstance(outcome.value, Atom)):
            # an awaitable: the one successful value `checked` lets through
            awaited = self._awaitable(agent, prepared, outcome)
            if awaited is None:
                return
            outcome = awaited
        duration = self._invocation_time(outcome.duration)
        if self._failures is not None:
            label = f"crash:{agent.name}:{agent.attempts}"
            crash_after = self._failures.crash_time(duration, self.randomness, label=label)
            if crash_after is not None and crash_after < duration:
                self.call_later(crash_after, self._crash, agent, agent.incarnation)
                return
        self.call_later(duration, self._complete_invocation, agent, agent.incarnation, outcome)

    def _complete_invocation(self, agent: AgentHost, incarnation: int, outcome: InvocationResult) -> None:
        if agent.incarnation == incarnation:
            self._stimulate(agent, self.engine.complete_invocation, outcome)

    # ------------------------------------------------------------- failures
    def _crash(self, agent: AgentHost, incarnation: int) -> None:
        if not agent.alive or agent.incarnation != incarnation:
            return
        agent.alive = False
        agent.incarnation += 1
        agent.failures += 1
        engine = self.engine
        engine.report.failures_injected += 1
        engine.coordinator.record_event(self.now(), agent.name, "failure", f"attempt {agent.attempts}")
        self.call_later(self.config.failures.recovery_overhead(), self._recover, agent)

    def _recover(self, agent: AgentHost) -> None:
        engine = self.engine
        engine.report.recoveries += 1
        actions, replayed = engine.recover(agent)
        self._serve(agent, actions, agent.core.reduction_units, replayed)
        engine.coordinator.record_event(self.now(), agent.name, "recovery", f"replayed {replayed} messages")
