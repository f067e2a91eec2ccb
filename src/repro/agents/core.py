"""The runtime-agnostic service-agent state machine.

A service agent (SA) is "composed of three elements": the service to invoke,
a local copy of its sub-solution, and an HOCL interpreter reading and
updating that copy (Section IV-A).  :class:`AgentCore` is exactly that —
minus any notion of time or transport.  Every external stimulus (boot, a
received message, the completion of an invocation) is a method call that

1. updates the local solution,
2. runs the local HOCL reduction to inertness,
3. returns the list of :class:`~repro.agents.actions.Action` the rules
   requested (messages to send, invocation to start, status updates).

Every runtime (simulated, asyncio, centralised) drives AgentCore; they only
differ in how they deliver stimuli and execute actions.  Keeping the
chemistry identical in every path is what makes the simulation a faithful
stand-in for the real decentralised execution.
"""

from __future__ import annotations

from logging import DEBUG
from time import perf_counter
from typing import Any

from repro.hocl import Multiset, ReductionEngine, ReductionError, Symbol, from_atom, to_atom
from repro.obs.logs import get_logger
from repro.obs.tracer import Tracer, active as active_tracer
from repro.hoclflow import keywords as kw
from repro.hoclflow.fields import (
    add_to_field,
    build_parameters,
    get_dst,
    get_in_atoms,
    get_res_atoms,
    get_src,
    remove_task_name,
    res_field,
    res_state,
    tagged_input,
)
from repro.hoclflow.translator import TaskEncoding

from .actions import Action, SendResult, StartInvocation, StatusUpdate
from .local_rules import LOCAL_EXTERNALS, build_local_rules

__all__ = ["AgentState", "AgentCore", "MAX_REDUCTION_STEPS"]

#: Reactions one stimulus's reduction may make before the agent gives up
#: with a :class:`~repro.hocl.ReductionError` (no workflow of the catalog
#: comes near it).
MAX_REDUCTION_STEPS = 10_000

#: One logger for every agent (the task name goes in the message): a logger
#: per task name would stay registered in the logging manager for good.
logger = get_logger("agents")


class AgentState:
    """Lifecycle states of a service agent (used in status updates)."""

    IDLE = "idle"
    READY = "ready"
    INVOKING = "invoking"
    COMPLETED = "completed"
    FAILED = "failed"


#: each state's status update: an immutable action, so one per state serves every stimulus
_STATUS_UPDATES = {state: StatusUpdate(state) for name, state in vars(AgentState).items() if name.isupper()}


class AgentCore:
    """Local solution + interpreter + bookkeeping of one service agent.

    Parameters
    ----------
    encoding:
        The task's HOCLflow encoding (fields + generic rules).
    trace:
        Optional :class:`~repro.obs.tracer.Tracer`: when active, every
        stimulus this core handles is recorded as an ``agent.<stimulus>``
        span on the agent's own track, containing the reduction-phase spans
        the engine emits (which it receives the same tracer for).  Tracing
        never changes the chemistry — the actions, counters and solution
        are identical with and without it.
    """

    def __init__(
        self,
        encoding: TaskEncoding,
        trace: "Tracer | None" = None,
    ) -> None:
        self.encoding = encoding
        self.name = encoding.name
        self.trace = active_tracer(trace)
        # shared rule objects (see local_rules): only the fields are this agent's own
        local_rules = build_local_rules(encoding)
        self.solution: Multiset = encoding.initial_solution(local_rules)
        # Between stimuli the local solution stays stamped inert, so
        # re-entering reduction after a stimulus only re-examines the parts
        # of the solution the stimulus actually dirtied.
        self.engine = ReductionEngine(
            externals=LOCAL_EXTERNALS,
            max_steps=MAX_REDUCTION_STEPS,
            trace=self.trace,
            trace_track=self.name,
        )
        self.state = AgentState.IDLE
        self.invocation_requested = False
        self.results_sent = 0
        self.duplicates_ignored = 0
        self.adaptations_applied = 0
        #: cost-accounting counters consumed by the simulation's cost model
        self.match_attempts = 0
        self.reduction_units = 0.0
        #: firings per rule name, aggregated across every stimulus
        self.rule_fires: dict[str, int] = {}

    # ----------------------------------------------------------------- state
    def pending_sources(self) -> list[str]:
        """Tasks this agent is still waiting for."""
        return get_src(self.solution)

    def pending_destinations(self) -> list[str]:
        """Tasks this agent still has to send its result to."""
        return get_dst(self.solution)

    def has_result(self) -> bool:
        """Whether a (non-error) result is stored in ``RES``."""
        return res_state(self.solution)[0]

    def has_error(self) -> bool:
        """Whether ``RES`` contains the ``ERROR`` marker."""
        return res_state(self.solution)[1]

    def result_value(self) -> Any:
        """The stored result value (unwrapped), or ``None``."""
        for atom in get_res_atoms(self.solution):
            if not (isinstance(atom, Symbol) and atom.name == kw.ERROR):
                return from_atom(atom)
        return None

    def current_parameters(self) -> list[Any]:
        """The parameter list the service would be invoked with right now."""
        return build_parameters(get_in_atoms(self.solution))

    def status(self) -> dict[str, Any]:
        """A status snapshot, the payload of ``STATUS`` messages.

        Sent with every stimulus, so it costs one read of ``RES`` whatever the
        agent's fan-in and fan-out: who it still waits for is answered from
        the solution (:meth:`pending_sources` / :meth:`pending_destinations`).
        """
        has_result, has_error = res_state(self.solution)
        return {"task": self.name, "state": self.state, "has_result": has_result, "has_error": has_error}

    # -------------------------------------------------------------- stimuli
    def boot(self) -> list[Action]:
        """First reduction after deployment (entry tasks start invoking here)."""
        self.state = AgentState.READY
        return self._reduce_and_collect("boot")

    def receive_result(self, source: str, value: Any) -> list[Action]:
        """Handle a ``RESULT`` message from ``source``.

        Duplicated or stale results (the source is no longer listed in
        ``SRC`` — either because the first copy was already consumed or
        because an adaptation moved the source) are ignored; the one-shot
        nature of ``gw_setup``/``gw_call`` makes this safe (Section IV-B).

        The local solution is edited in place — the source leaves ``SRC``,
        the tagged value joins ``IN`` — so one message costs the same
        whatever the agent's fan-in.
        """
        if not remove_task_name(self.solution, kw.SRC, source):
            self.duplicates_ignored += 1
            return []
        add_to_field(self.solution, kw.IN, tagged_input(source, value))
        return self._reduce_and_collect("receive_result")

    def receive_adapt(self, count: int = 1) -> list[Action]:
        """Handle an ``ADAPT`` message: inject the marker(s) and re-reduce."""
        for _ in range(max(1, count)):
            self.solution.add(kw.ADAPT_SYM)
        self.adaptations_applied += 1
        return self._reduce_and_collect("receive_adapt")

    def invocation_succeeded(self, value: Any) -> list[Action]:
        """Handle the service result: store it and let ``gw_pass`` send it."""
        self._store_result(to_atom(value))
        self.state = AgentState.COMPLETED
        return self._reduce_and_collect("invocation_succeeded")

    def invocation_failed(self, error: str | None = None) -> list[Action]:
        """Handle a failed invocation: store ``ERROR`` (triggers adaptation)."""
        self._store_result(kw.ERROR_SYM)
        self.state = AgentState.FAILED
        return self._reduce_and_collect("invocation_failed")

    # ------------------------------------------------------------- internals
    def _store_result(self, atom: Any) -> None:
        if self.solution.find_tuple(kw.RES) is None:
            self.solution.add(res_field([atom]))
        else:
            add_to_field(self.solution, kw.RES, atom)

    def _reduce_and_collect(self, stimulus: str = "stimulus") -> list[Action]:
        trace = self.trace
        started = perf_counter() if trace is not None else 0.0
        report = self.engine.reduce(self.solution)
        if not report.inert:
            raise ReductionError(
                f"agent {self.name!r}: the {stimulus} reduction stopped after {report.reactions} reactions, "
                f"at its bound of {self.engine.max_steps}, before the solution was inert"
            )
        self.match_attempts += report.match_attempts
        self.reduction_units += report.reduction_units(len(self.solution))
        for rule_name, fires in report.rule_fires.items():
            self.rule_fires[rule_name] = self.rule_fires.get(rule_name, 0) + fires
        # what this reduction's rules requested, and nobody else's: the
        # report is the only sink the shared rules' effects have
        actions: list[Action] = report.effects
        for action in actions:
            if isinstance(action, StartInvocation):
                self.invocation_requested = True
            elif isinstance(action, SendResult):
                self.results_sent += 1
        actions.append(_STATUS_UPDATES[self.state])
        if trace is not None:
            trace.span(
                f"agent.{stimulus}",
                self.name,
                started,
                perf_counter(),
                reactions=report.reactions,
                match_attempts=report.match_attempts,
                state=self.state,
            )
        if logger.isEnabledFor(DEBUG):  # one call per stimulus, not `debug`'s two
            logger.debug("%s %s: %d reactions, %d actions, state=%s",
                         self.name, stimulus, report.reactions, len(actions), self.state)
        return actions
