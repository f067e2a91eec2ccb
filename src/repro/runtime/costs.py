"""Cost model of the simulated distributed execution.

The simulation executes the *real* chemistry (every agent runs the actual
HOCL rules); what it models are the *durations* of the platform operations.
This module gathers every such constant in one place so that experiments are
reproducible and the calibration is explicit.

The constants were calibrated so that the reproduced figures have the same
shape (and roughly the same magnitudes) as the paper's:

* per-message broker costs make message-heavy workflows (fully-connected
  diamonds, Kafka runs) pay proportionally — Fig. 12(b), Fig. 14 — one
  :class:`BrokerProfile` per middleware, which also says whether its log
  is persistent and replayable (what agent recovery needs);
* per-reduction costs grow with the size of the local solution, reproducing
  the "pattern matching depends on the size of the solution" effect the
  paper discusses in Section V-A;
* executor constants reproduce the deployment-time trends of Fig. 14.
"""

from __future__ import annotations

from typing import Any

from repro.records import Frozen

__all__ = ["BrokerProfile", "ACTIVEMQ_PROFILE", "KAFKA_PROFILE", "CostModel"]


class BrokerProfile(Frozen):
    """Performance/feature profile of a message-queue middleware.

    Attributes
    ----------
    name:
        ``"activemq"`` or ``"kafka"`` (other middlewares can be described the
        same way).
    per_message_time:
        Broker-side processing time per message (seconds); messages queue
        behind each other on the broker's dispatcher.
    delivery_overhead:
        Fixed client-side overhead added to every delivery (serialisation,
        acknowledgement round-trip).
    persistent:
        Whether messages are durably logged and can be replayed — required by
        the agent-recovery mechanism.
    """

    __slots__ = ("name", "per_message_time", "delivery_overhead", "persistent")
    name: str
    per_message_time: float
    delivery_overhead: float
    persistent: bool

    def __init__(self, name: str, per_message_time: float, delivery_overhead: float, persistent: bool):
        self._init(name, per_message_time, delivery_overhead, persistent)

    def scaled(self, factor: float) -> "BrokerProfile":
        """A profile with all time costs multiplied by ``factor``."""
        return BrokerProfile(
            name=self.name,
            per_message_time=self.per_message_time * factor,
            delivery_overhead=self.delivery_overhead * factor,
            persistent=self.persistent,
        )


#: ActiveMQ 5.6-like profile: fast, transient messaging.  The constants are
#: calibrated so that the reproduced Fig. 12/14 keep the paper's shape (see
#: DESIGN.md).
ACTIVEMQ_PROFILE = BrokerProfile(
    name="activemq",
    per_message_time=0.002,
    delivery_overhead=0.050,
    persistent=False,
)

#: Kafka 0.8-like profile: markedly higher per-message cost (synchronous,
#: replicated, disk-backed publishes — the paper measures the whole workflow
#: running ≈ 4× slower) but persistent and replayable.
KAFKA_PROFILE = BrokerProfile(
    name="kafka",
    per_message_time=0.150,
    delivery_overhead=0.080,
    persistent=True,
)


class CostModel(Frozen):
    """Durations charged to the virtual clock by the simulated runtime.

    Attributes
    ----------
    agent_boot_time:
        Time for a freshly deployed SA to read its sub-solution from the
        shared space and become ready.
    handling_base:
        Fixed cost of handling one stimulus (message receipt, invocation
        completion): deserialisation, cache read/write.
    reduction_unit_cost:
        Cost per "reduction unit" (one match attempt over one atom of the
        local solution, see
        :meth:`repro.hocl.engine.ReductionReport.reduction_units`) — the
        knob that makes coordination time grow with the number and
        connectivity of services.  Under the incremental engine a match
        attempt is only charged when a rule's search actually runs:
        index-refuted rules and already-inert sub-solutions are free, so
        the simulated interpreter cost tracks the real one.
    invocation_overhead:
        Fixed overhead added to every service invocation (fork/exec of the
        wrapped executable, input staging).
    status_update_enabled:
        Whether agents push STATUS messages to the shared space (they do in
        GinFlow; disabling isolates the coordination cost in ablations).
    status_update_size:
        Serialised size of a STATUS message (bytes).
    result_message_size:
        Serialised size of a RESULT message (bytes).
    activemq / kafka:
        Broker profiles (per-message processing, delivery overhead,
        persistence).
    broker_dispatchers:
        Number of parallel dispatcher threads of the broker.
    recovery_replay_cost_per_message:
        Time to re-fetch and re-apply one logged message during an agent
        recovery (Kafka consumer catch-up).
    """

    __slots__ = (
        "agent_boot_time", "handling_base", "reduction_unit_cost", "invocation_overhead", "status_update_enabled",
        "status_update_size", "result_message_size", "activemq", "kafka", "broker_dispatchers",
        "recovery_replay_cost_per_message",
    )
    agent_boot_time: float
    handling_base: float
    reduction_unit_cost: float
    invocation_overhead: float
    status_update_enabled: bool
    status_update_size: int
    result_message_size: int
    activemq: BrokerProfile
    kafka: BrokerProfile
    broker_dispatchers: int
    recovery_replay_cost_per_message: float

    def __init__(
        self, agent_boot_time: float = 0.05, handling_base: float = 0.120, reduction_unit_cost: float = 0.00010,
        invocation_overhead: float = 1.0, status_update_enabled: bool = True, status_update_size: int = 256,
        result_message_size: int = 1024, activemq: BrokerProfile = ACTIVEMQ_PROFILE,
        kafka: BrokerProfile = KAFKA_PROFILE, broker_dispatchers: int = 1,
        recovery_replay_cost_per_message: float = 0.01,
    ):
        self._init(
            agent_boot_time, handling_base, reduction_unit_cost, invocation_overhead, status_update_enabled,
            status_update_size, result_message_size, activemq, kafka, broker_dispatchers,
            recovery_replay_cost_per_message,
        )

    # ------------------------------------------------------------- helpers
    def broker_profile(self, name: str) -> BrokerProfile:
        """The profile of the broker called exactly ``name`` (``"activemq"`` / ``"kafka"``)."""
        from .config import _row  # the backend table (its module imports this one)

        _row("broker", name)  # refuses any other name
        return getattr(self, name)

    def handling_cost(self, reduction_units: float) -> float:
        """Virtual time consumed by one agent handling step.

        ``reduction_units`` is the accounting produced by
        :meth:`~repro.hocl.engine.ReductionReport.reduction_units`; the
        agents accumulate it per stimulus so the charged time follows the
        match searches the (incremental) interpreter actually performed.
        """
        return self.handling_base + self.reduction_unit_cost * max(0.0, reduction_units)

    def replay_cost(self, message_count: int) -> float:
        """Virtual time for a recovering agent to replay its message log."""
        return self.recovery_replay_cost_per_message * max(0, message_count)

    def with_overrides(self, **overrides: Any) -> "CostModel":
        """A copy of the model with some attributes replaced."""
        return self._replace(**overrides)
