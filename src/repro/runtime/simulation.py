"""The simulated distributed runtime.

This is the virtual-time counterpart of a GinFlow deployment: every service
agent runs the *real* decentralised chemistry
(:class:`~repro.agents.core.AgentCore`), messages travel through a
:class:`~repro.messaging.simulated.SimulatedBroker`, agents are provisioned
by an :class:`~repro.executors.ssh.SSHExecutor` or
:class:`~repro.executors.mesos.MesosExecutor` over a simulated cluster, and
failures are injected according to the paper's model (Section V-D).  Only the
*durations* of platform operations are modelled, through the
:class:`~repro.runtime.costs.CostModel`.

The protocol itself (action dispatch, invocation lifecycle, status routing,
report rows) lives in the shared :mod:`repro.runtime.enactment` engine; this
module is the *driver* — it owns only what is specific to virtual time:

* charging every stimulus its modelled handling cost on the agent's serial
  queue before its actions dispatch;
* scheduling invocation completions (and injected crashes) on the virtual
  clock, with the cost model's invocation overhead;
* the crash/recovery choreography (incarnation counting, recovery delay,
  boot-and-replay cost) around the engine's recovery protocol.

The flow of one run:

1. the workflow is encoded (:func:`repro.hoclflow.encode_workflow`);
2. the executor produces a deployment plan on the cluster;
3. once deployment completes, every agent boots and the enactment proceeds
   purely by message exchanges until the exit tasks hold results (or the
   event queue drains);
4. a :class:`~repro.runtime.results.RunReport` is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.agents.actions import Action
from repro.hoclflow.translator import encode_workflow
from repro.messaging import Message, MessageKind, SimulatedBroker, agent_topic
from repro.services import InvocationResult
from repro.simkernel import RandomStreams, SerialQueue, Simulator
from repro.workflow.dag import Workflow

from .config import GinFlowConfig
from .enactment import AgentHost, EnactmentEngine, PreparedInvocation, ReportAssembler, VirtualClock
from .results import RunReport

__all__ = ["SimulatedRun", "run_simulation"]


@dataclass
class _SimAgent(AgentHost):
    """One simulated service agent: engine host + its virtual serial queue."""

    serial: SerialQueue | None = None


class SimulatedRun:
    """One simulated distributed execution of a workflow."""

    def __init__(self, workflow: Workflow, config: GinFlowConfig | None = None) -> None:
        self.workflow = workflow
        self.config = config or GinFlowConfig()
        self.report = RunReport()
        self._sim = Simulator()
        self._randomness = RandomStreams(self.config.seed)
        self._engine: EnactmentEngine | None = None
        self._enactment_start = 0.0

    # ------------------------------------------------------------------ run
    def run(self) -> RunReport:
        """Execute the workflow and return its report."""
        config = self.config
        costs = config.costs
        encoding = encode_workflow(self.workflow)

        cluster = config.build_cluster()
        network = config.build_network()
        broker = SimulatedBroker(
            self._sim,
            config.broker_profile(),
            network=network,
            randomness=self._randomness.spawn("broker"),
            dispatchers=costs.broker_dispatchers,
        )
        tracer = config.obs.active_tracer() if config.obs is not None else None
        if tracer is not None:
            # Stamp every record with the virtual instant it happened at.
            tracer.vt_source = lambda: self._sim.now
        broker.attach_observability(config.obs)
        engine = EnactmentEngine(
            config=config,
            encoding=encoding,
            clock=VirtualClock(self._sim),
            transport=broker,
            invoker=self._invoke,
            report=self.report,
        )
        self._engine = engine

        executor = config.build_executor()
        agent_names = encoding.task_names()
        plan = executor.plan(cluster, agent_names)

        # Virtual time is single-threaded by construction, so a parallel
        # policy degrades to its batch component here: same final solutions,
        # no pool.  (Simulated timings model the *platform*, not host CPU.)
        with engine.enacting():
            for name in agent_names:
                agent = engine.add_host(
                    _SimAgent(
                        encoding=encoding.tasks[name],
                        core=engine.new_core(encoding.tasks[name]),
                        node=plan.placement.get(name, "unknown"),
                        serial=SerialQueue(self._sim, name=f"agent-{name}"),
                    )
                )
                broker.subscribe(agent_topic(name), partial(self._on_message, agent))
            engine.subscribe_status()

            # Enactment starts once deployment completes (the stacked bars of
            # Fig. 14 split deployment time from execution time).
            self._enactment_start = plan.deployment_time
            boot_time = plan.deployment_time + costs.agent_boot_time
            for agent in engine.hosts.values():
                self._sim.call_at(boot_time, self._handle, agent, engine.boot)

            self._sim.run(until=config.max_virtual_time)
            return self._build_report(plan.deployment_time)

    # ------------------------------------------------------------- handling
    def _on_message(self, agent: _SimAgent, message: Message) -> None:
        # A message for an agent that is down is dropped (`_handle`): a persistent
        # broker keeps it in its log, so the recovery replay will deliver it;
        # with a transient broker it is lost.
        if message.kind in (MessageKind.RESULT, MessageKind.ADAPT):
            self._handle(agent, self._engine.deliver, message)

    def _handle(self, agent: _SimAgent, stimulus: Callable[..., list[Action]], *args: Any) -> None:
        """Run ``stimulus(agent, *args)`` and dispatch its actions after the modelled cost."""
        if not agent.alive:
            return
        core = agent.core
        units_before = core.reduction_units
        actions = stimulus(agent, *args)
        cost = self.config.costs.handling_cost(core.reduction_units - units_before)
        agent.serial.submit(cost, self._dispatch, agent, actions, agent.incarnation)

    def _dispatch(self, agent: _SimAgent, actions: list[Action], incarnation: int) -> None:
        if not agent.alive or agent.incarnation != incarnation:
            return
        self._engine.dispatch(agent, actions)

    # ----------------------------------------------------------- invocation
    def _invoke(self, agent: _SimAgent, prepared: PreparedInvocation) -> None:
        """Engine invoker: schedule the invocation's end on the virtual clock."""
        outcome = prepared.invoke()
        duration = max(0.0, outcome.duration) + self.config.costs.invocation_overhead
        crash_after = self.config.failures.crash_time(
            duration, self._randomness, label=f"crash:{agent.name}:{agent.attempts}"
        )
        if crash_after is not None and crash_after < duration:
            self._sim.call_in(crash_after, self._crash, agent, agent.incarnation)
        else:
            self._sim.call_in(duration, self._complete_invocation, agent, agent.incarnation, outcome)

    def _complete_invocation(self, agent: _SimAgent, incarnation: int, outcome: InvocationResult) -> None:
        if agent.incarnation == incarnation:
            self._handle(agent, self._engine.complete_invocation, outcome)

    # -------------------------------------------------------------- failures
    def _crash(self, agent: _SimAgent, incarnation: int) -> None:
        if not agent.alive or agent.incarnation != incarnation:
            return
        agent.alive = False
        agent.incarnation += 1
        agent.failures += 1
        self.report.failures_injected += 1
        self._engine.coordinator.record_event(self._sim.now, agent.name, "failure", f"attempt {agent.attempts}")
        self._sim.call_in(self.config.failures.recovery_overhead(), self._recover, agent)

    def _recover(self, agent: _SimAgent) -> None:
        self.report.recoveries += 1
        actions, replayed = self._engine.recover(agent)
        costs = self.config.costs
        replay_cost = costs.agent_boot_time + costs.replay_cost(replayed)
        agent.serial.submit(
            replay_cost + costs.handling_cost(agent.core.reduction_units),
            self._dispatch, agent, actions, agent.incarnation,
        )
        self._engine.coordinator.record_event(
            self._sim.now, agent.name, "recovery", f"replayed {replayed} messages"
        )

    # --------------------------------------------------------------- report
    def _build_report(self, deployment_time: float) -> RunReport:
        engine = self._engine
        assert engine is not None
        config = self.config
        completion = engine.coordinator.completion_time
        end = completion if completion is not None else self._sim.now
        report = ReportAssembler(engine).assemble(
            mode="simulated",
            executor=config.executor,
            broker=config.broker,
            nodes=len(config.build_cluster()) if config.cluster is None else len(config.cluster),
            deployment_time=deployment_time,
            execution_time=max(0.0, end - self._enactment_start),
            makespan=end,
            # stopped at the horizon with work still queued; a queue that
            # drains without completion is a stall, not a time-out
            timed_out=completion is None and self._sim.pending() > 0,
        )
        report.extra["status_updates"] = engine.coordinator.status_updates
        report.extra["virtual_events"] = self._sim.processed_events
        report.extra["sim_wall_seconds"] = round(self._sim.wall_seconds, 6)
        return report


def run_simulation(
    workflow: Workflow, config: GinFlowConfig | None = None, timeout: float | None = None
) -> RunReport:
    """Simulate ``workflow`` under ``config`` — also the ``simulated`` backend's
    entry point (``timeout`` has no meaning in virtual time)."""
    return SimulatedRun(workflow, config).run()
