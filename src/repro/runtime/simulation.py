"""The simulated distributed runtime: the agent driver on the virtual clock.

This is the virtual-time counterpart of a GinFlow deployment: every service
agent runs the *real* decentralised chemistry
(:class:`~repro.agents.core.AgentCore`), messages travel through a
:class:`~repro.messaging.simulated.SimulatedBroker`, agents are provisioned
by an :class:`~repro.executors.ssh.SSHExecutor` or
:class:`~repro.executors.mesos.MesosExecutor` over a simulated cluster, and
failures are injected according to the paper's model (Section V-D).  Only the
*durations* of platform operations are modelled, through the
:class:`~repro.runtime.costs.CostModel`.

The driver is :class:`~repro.runtime.driver.AgentRun`'s; this module supplies
the virtual clock (:class:`~repro.simkernel.Simulator`): an agent handles one
stimulus at a time, so a stimulus's actions dispatch when the agent's FIFO
queue has served it for its modelled handling cost — Lindley's recursion
``f_k = max(p_k, f_{k-1}) + c_k``, one kernel entry per stimulus; an
invocation completes after its duration plus the invocation overhead, a
service that returns an awaitable fails its task, and a raising stimulus
propagates.

The flow of one run:

1. the workflow is encoded (:func:`repro.hoclflow.encode_workflow`);
2. the executor produces a deployment plan on the cluster;
3. once deployment completes, every agent boots and the enactment proceeds
   purely by message exchanges until the exit tasks hold results (or the
   event queue drains);
4. a :class:`~repro.runtime.results.RunReport` is assembled.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush

from repro.agents.actions import Action
from repro.agents.core import AgentCore
from repro.hoclflow.translator import TaskEncoding
from repro.messaging import SimulatedBroker
from repro.services import InvocationResult
from repro.simkernel import Simulator
from repro.workflow.dag import Workflow

from .config import GinFlowConfig
from .driver import AgentRun
from .enactment import AgentHost, PreparedInvocation, ReportAssembler
from .results import RunReport

__all__ = ["SimulatedRun", "run_simulation"]


class _SimAgent(AgentHost):
    """One simulated service agent: engine host + when its stimulus queue next falls idle."""

    __slots__ = ("idle_at",)

    def __init__(self, encoding: TaskEncoding, core: AgentCore, node: str):
        super().__init__(encoding, core, node)
        self.idle_at = 0.0


class SimulatedRun(AgentRun):
    """One simulated distributed execution of a workflow."""

    def __init__(self, workflow: Workflow, config: GinFlowConfig | None = None) -> None:
        super().__init__(workflow, config or GinFlowConfig())
        self._sim = Simulator()
        self._costs = self.config.costs
        # the clock's `call_later` is the kernel's `call_in` itself, and its `now` reads the
        # kernel's clock through a C-level partial: no wrapper frame per entry or per timestamp
        self.call_later = self._sim.call_in  # type: ignore[method-assign]
        self.now = partial(getattr, self._sim, "now")  # type: ignore[method-assign]
        self._placement: dict[str, str] = {}

    # ------------------------------------------------------------------ run
    def run(self) -> RunReport:
        """Execute the workflow and return its report."""
        config, costs = self.config, self._costs
        cluster = config.build_cluster()
        broker = SimulatedBroker(
            self._sim,
            config.broker_profile(),
            network=config.build_network(),
            randomness=self.randomness.spawn("broker"),
            dispatchers=costs.broker_dispatchers,
        )
        tracer = config.obs.active_tracer() if config.obs is not None else None
        if tracer is not None:
            tracer.vt_source = self.now  # every record stamped with its virtual instant
        broker.attach_observability(config.obs)
        engine = self._enact(broker)
        plan = config.build_executor().plan(cluster, engine.encoding.task_names())
        self._placement = plan.placement

        with engine.enacting():
            # Enactment starts once deployment completes (the stacked bars of
            # Fig. 14 split deployment time from execution time).
            self._host_agents(plan.deployment_time + costs.agent_boot_time)
            self._sim.run(until=config.max_virtual_time)
            return self._build_report(len(cluster), plan.deployment_time)

    # ---------------------------------------------------------------- clock
    def _new_host(self, encoding: TaskEncoding) -> AgentHost:
        return _SimAgent(
            encoding=encoding,
            core=self.engine.new_core(encoding),
            node=self._placement.get(encoding.name, "unknown"),
        )

    def _serve(self, agent: AgentHost, actions: list[Action], units: float, replayed: int | None = None) -> None:
        costs, sim = self._costs, self._sim
        # `CostModel.handling_cost`, written out: this runs once per stimulus
        work = costs.handling_base + costs.reduction_unit_cost * max(0.0, units)
        if replayed is not None:
            work = costs.agent_boot_time + costs.replay_cost(replayed) + work
        now = sim.now
        # Lindley's recursion: the agent serves its stimuli in arrival order
        finish = agent.idle_at = max(now, agent.idle_at) + work  # type: ignore[attr-defined]
        # `now + (finish - now)`, not `finish`: the two differ in the last bit
        # and every pinned timeline was produced by the former
        heappush(sim.queue, (now + (finish - now), sim.ticket(), self._dispatch, (agent, actions, agent.incarnation)))

    def _invocation_time(self, duration: float) -> float:
        return max(0.0, duration) + self._costs.invocation_overhead

    def _awaitable(self, agent: AgentHost, prepared: PreparedInvocation, outcome: InvocationResult) -> InvocationResult:
        close = getattr(outcome.value, "close", None)
        if close is not None:
            close()  # a coroutine: closed, never awaited
        error = f"service {prepared.service_name!r} returned an awaitable, which the virtual clock cannot await"
        return InvocationResult(None, outcome.duration, failed=True, error=error)

    # --------------------------------------------------------------- report
    def _build_report(self, nodes: int, deployment_time: float) -> RunReport:
        engine, sim = self.engine, self._sim
        completion = engine.coordinator.completion_time
        end = completion if completion is not None else sim.now
        report = ReportAssembler(engine).assemble(
            mode="simulated",
            executor=self.config.executor,
            broker=self.config.broker,
            nodes=nodes,
            deployment_time=deployment_time,
            execution_time=max(0.0, end - deployment_time),
            makespan=end,
            # stopped at the horizon with work still queued; a queue that
            # drains without completion is a stall, not a time-out
            timed_out=completion is None and sim.pending() > 0,
        )
        report.virtual_events = sim.processed_events
        return report


def run_simulation(
    workflow: Workflow, config: GinFlowConfig | None = None, timeout: float | None = None
) -> RunReport:
    """Simulate ``workflow`` under ``config`` — also the ``simulated`` backend's
    entry point (``timeout`` has no meaning in virtual time)."""
    return SimulatedRun(workflow, config).run()
