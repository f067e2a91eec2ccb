"""The enactment engine: the one decentralised protocol, hosted anywhere.

:class:`EnactmentEngine` is the runtime-agnostic half of every GinFlow
runtime.  It owns:

* the **action dispatch** — the single mapping from the actions an
  :class:`~repro.agents.core.AgentCore` emits to the broker messages,
  adaptation bookkeeping and coordinator updates they imply;
* the **invocation lifecycle** — attempt counting, service resolution,
  invocation context assembly and the failure/success stimuli fed back to
  the chemistry (service-level failed attempts are counted per task);
* the **coordinator wiring** — STATUS routing (through the broker, or
  directly when status updates are disabled by the cost model) and
  completion detection, including fail-fast completion on terminal
  exit-task errors;
* the **recovery protocol** — rebuilding a crashed agent from the
  transport's replayable log (Section IV-B).

The driver (:class:`~repro.runtime.driver.AgentRun`) owns only scheduling:
*when* each stimulus runs on its clock and how a started invocation's
completion is waited for.  It hands the engine an ``invoker`` callable for
exactly that purpose: the engine prepares the invocation (bookkeeping
included) and the driver decides how to execute it and when to feed the
outcome back through :meth:`EnactmentEngine.complete_invocation`.  The driver
is also the engine's :class:`Clock`.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.agents import Coordinator, SendAdapt, SendResult, StartInvocation, StatusUpdate
from repro.agents.actions import Action
from repro.agents.core import AgentCore
from repro.agents.recovery import rebuild_agent
from repro.hocl import AtomError, to_atom
from repro.hoclflow.translator import TaskEncoding, WorkflowEncoding
from repro.messaging import Message, MessageKind, STATUS_TOPIC, adapt_count, agent_topic
from repro.messaging.message import new_message
from repro.obs.tracer import Tracer
from repro.records import Record
from repro.services import InvocationContext, InvocationResult, Service

from ..frozen import FrozenSetUp
from ..results import RunReport
from .transport import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import GinFlowConfig

__all__ = ["AgentHost", "Clock", "PreparedInvocation", "EnactmentEngine"]


class Clock(Protocol):
    """What the engine reads every timestamp from, in seconds: the run's driver."""

    def now(self) -> float: ...


class AgentHost(Record):
    """Runtime-agnostic book-keeping of one hosted service agent.

    A clock may subclass this record to attach its scheduling state (the
    virtual clock's serial queue; the real clock needs none); the engine only
    ever touches the fields below.
    """

    __slots__ = (
        "encoding", "core", "node", "alive", "incarnation", "attempts", "failures", "started_at", "finished_at"
    )

    def __init__(self, encoding: TaskEncoding, core: AgentCore, node: str = "localhost"):
        self.encoding, self.core, self.node, self.alive = encoding, core, node, True
        self.incarnation = self.attempts = self.failures = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None

    @property
    def name(self) -> str:
        return self.encoding.name


class PreparedInvocation(Record):
    """One service invocation, fully prepared by the engine.

    The driver runs it at dispatch, awaits what an async service returned
    when its clock can, and feeds the outcome back through
    :meth:`EnactmentEngine.complete_invocation`.  ``trace`` is attached by the
    engine when tracing is on; every runtime's ``invoke`` call then records
    the invocation span identically.
    """

    __slots__ = ("host", "service", "parameters", "context", "trace")

    def __init__(
        self, host: AgentHost, service: Service, parameters: list[Any], context: InvocationContext,
        trace: Tracer | None = None,
    ):
        self.host, self.service, self.parameters, self.context, self.trace = host, service, parameters, context, trace

    @property
    def service_name(self) -> str:
        """The service's registered name (its type's, for an anonymous one)."""
        return getattr(self.service, "name", type(self.service).__name__)

    def invoke(self) -> InvocationResult:
        """Run the service call itself (pure; no engine bookkeeping).

        Services contract to *return* failures rather than raise, but a
        broken implementation that raises anyway must not end the run (loop
        or simulated callback) with the invocation unaccounted — the run
        would wait out its timeout with no error attributed to the task.  The
        exception is converted into a failed result here so both clocks
        inherit the same behaviour.
        """
        trace = self.trace
        started = perf_counter() if trace is not None else 0.0
        try:
            outcome = self.checked(self.service.invoke(self.parameters, self.context))
        except Exception as exc:  # noqa: BLE001 - converted into a task failure
            outcome = InvocationResult(
                value=None,
                duration=self.context.duration,
                failed=True,
                error=f"{type(exc).__name__}: {exc}",
            )
        if trace is not None:
            trace.span(
                "enactment.invoke",
                self.host.name,
                started,
                perf_counter(),
                service=self.service_name,
                attempt=self.context.attempt,
                failed=outcome.failed,
            )
        return outcome

    def checked(self, outcome: InvocationResult) -> InvocationResult:
        """``outcome`` with its value in atom form, or a failed result when it has none.

        Such a value (``None``, a dict, ...) fails the task like any other
        error, instead of raising ``AtomError`` in whichever worker stores it;
        the agent stores the atom built here as it is.  An awaitable passes —
        the one successful value that is not an atom: the real clock awaits
        it, then checks.
        """
        if outcome.failed:
            return outcome
        try:
            return InvocationResult(to_atom(outcome.value), outcome.duration, False, outcome.error)
        except AtomError:
            import inspect  # only a value with no atom form gets here

            if inspect.isawaitable(outcome.value):
                return outcome
            kind = type(outcome.value).__name__
            error = f"service {self.service_name!r} returned {kind}, which has no HOCL atom form"
            return InvocationResult(None, outcome.duration, failed=True, error=error)


class EnactmentEngine:
    """The shared enactment protocol, parameterised by clock and transport."""

    def __init__(
        self,
        *,
        config: "GinFlowConfig",
        encoding: WorkflowEncoding,
        clock: Clock,
        transport: Transport,
        invoker: Callable[[AgentHost, PreparedInvocation], None],
        on_complete: Callable[[float], None] | None = None,
    ) -> None:
        self.config = config
        self.encoding = encoding
        self.clock = clock
        self.transport = transport
        self._invoker = invoker
        self.registry = config.build_registry()
        self.report = RunReport()
        self.obs = config.obs
        self._trace = self.obs.active_tracer() if self.obs is not None else None
        self._metrics = self.obs.metrics if self.obs is not None else None
        # Tasks whose failure triggers an adaptation must not fail-fast the
        # run: their ERROR is the *start* of the recovery, not the end.
        adaptable = {name for name, task in encoding.tasks.items() if task.trigger_plans}
        self.coordinator = Coordinator(
            exit_tasks=encoding.exit_tasks(),
            on_complete=on_complete,
            adaptable_tasks=adaptable,
        )
        self.hosts: dict[str, AgentHost] = {}
        #: every agent's topic, built once: its subscription, its replay and every send to it read it here
        self.topics = {name: agent_topic(name) for name in encoding.tasks}
        #: the hosts, frozen as they are built once `enacting()` is entered
        self._set_up = FrozenSetUp(len(encoding.tasks))

    # ---------------------------------------------------------------- hosts
    def new_core(self, encoding: TaskEncoding) -> AgentCore:
        """An agent core on this run's tracer — the one place cores are made, so
        a recovered agent traces like the first."""
        return AgentCore(encoding, trace=self._trace)

    def add_host(self, host: AgentHost) -> AgentHost:
        """Register one hosted agent (insertion order is report order); inside
        :meth:`enacting`, one more item of the frozen set-up."""
        self.hosts[host.name] = host
        self._set_up.built()
        return host

    def subscribe_status(self) -> None:
        """Route the shared-space STATUS topic into the coordinator."""
        self.transport.subscribe(STATUS_TOPIC, self.record_status)

    def enacting(self) -> FrozenSetUp:
        """The run, first :meth:`add_host` to assembled report, as a ``with`` block: the hosts,
        frozen as built and given back however it is left (:class:`~repro.runtime.frozen.FrozenSetUp`)."""
        return self._set_up

    # -------------------------------------------------------------- stimuli
    def boot(self, host: AgentHost) -> list[Action]:
        """First reduction after deployment: stamp the start, boot the core."""
        host.started_at = self.clock.now()
        return host.core.boot()

    def deliver(self, host: AgentHost, message: Message) -> list[Action]:
        """The one mapping from an incoming message to a core stimulus."""
        if message.kind == MessageKind.RESULT:
            return host.core.receive_result(message.sender, message.payload)
        if message.kind == MessageKind.ADAPT:
            # shared coercion: MUST match what recovery.replay_messages
            # applies, or a replayed agent diverges from the one it replaces
            return host.core.receive_adapt(adapt_count(message.payload))
        return []

    def complete_invocation(self, host: AgentHost, outcome: InvocationResult) -> list[Action]:
        """Feed a finished invocation back into the chemistry."""
        host.finished_at = self.clock.now()
        if outcome.failed:
            host.failures += 1
            if self._metrics is not None:
                self._metrics.counter("enactment.invocation_failures").inc()
            return host.core.invocation_failed(outcome.error)
        return host.core.invocation_succeeded(outcome.value)

    # ------------------------------------------------------------- dispatch
    def dispatch(self, host: AgentHost, actions: list[Action]) -> None:
        """Execute the actions one reduction emitted (the protocol's I/O): a send
        builds its message with no Python frame before the transport's ``publish``."""
        costs = self.config.costs
        trace, metrics = self._trace, self._metrics
        publish, sender, topics = self.transport.publish, host.encoding.name, self.topics
        for action in actions:
            if trace is not None:
                trace.event("enactment.dispatch", sender, action=type(action).__name__)
            if metrics is not None:
                metrics.counter("enactment.actions").inc()
            if isinstance(action, SendResult):
                destination = action.destination
                publish(new_message((topics[destination], MessageKind.RESULT, sender, destination, action.value,
                                     costs.result_message_size)))
            elif isinstance(action, SendAdapt):
                destination = action.destination
                publish(new_message((topics[destination], MessageKind.ADAPT, sender, destination, action.count,
                                     costs.status_update_size)))
            elif isinstance(action, StartInvocation):
                self._start_invocation(host, action)
            elif isinstance(action, StatusUpdate):
                status = new_message((STATUS_TOPIC, MessageKind.STATUS, sender, "coordinator", host.core.status(),
                                      costs.status_update_size))
                # without status traffic the update skips the broker: completion detection still works
                (publish if costs.status_update_enabled else self.record_status)(status)

    def _start_invocation(self, host: AgentHost, action: StartInvocation) -> None:
        host.attempts += 1
        prepared = PreparedInvocation(
            host=host,
            service=self.registry.resolve(action.service),
            parameters=list(action.parameters),
            context=InvocationContext(
                task_name=host.encoding.name,
                duration=host.encoding.duration,
                metadata=host.encoding.metadata,
                attempt=host.attempts,
            ),
            trace=self._trace,
        )
        if self._metrics is not None:
            self._metrics.counter("enactment.invocations").inc()
        self._invoker(host, prepared)

    # --------------------------------------------------------------- status
    def record_status(self, message: Message) -> None:
        """The STATUS-topic subscriber: fold one agent's update into the
        coordinator at the current clock time."""
        status = message.payload
        if not isinstance(status, dict):
            return
        if self._trace is not None:
            self._trace.event("enactment.status", message.sender, state=status.get("state"))
        if self._metrics is not None:
            self._metrics.counter("enactment.status_updates").inc()
        self.coordinator.record_status(message.sender, status, time=self.clock.now())

    # ------------------------------------------------------------- recovery
    def recover(self, host: AgentHost) -> tuple[list[Action], int]:
        """Rebuild a crashed agent from the transport's log (Section IV-B).

        Returns the actions produced by the boot-and-replay (the driver
        re-executes them — duplicates are harmless by construction) and the
        number of replayed messages (for the driver's cost accounting).
        """
        logged = self.transport.replay(self.topics[host.name]) if self.transport.supports_replay else []
        crashed = host.core
        host.core, actions = rebuild_agent(host.encoding, logged, core=self.new_core(host.encoding))
        # the dead core's solution is cyclic garbage (a nested solution knows its
        # holder): taken apart, it goes now and not at some later collector pass
        crashed.solution.clear()
        host.alive = True
        return actions, len(logged)
