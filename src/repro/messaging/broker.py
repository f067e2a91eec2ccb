"""Broker abstractions: persistent logs and the broker interface.

The paper supports two message-queue middlewares and uses exactly two of
their properties:

* their relative **per-message cost** (Fig. 14 shows the whole workflow
  running ≈ 4× slower on Kafka than on ActiveMQ), captured by the cost
  model's :class:`~repro.runtime.costs.BrokerProfile`;
* Kafka's **persistent, replayable log**, which is what makes the SA
  fault-recovery mechanism of Section IV-B possible, captured by
  :class:`MessageLog` and the ``persistent`` flag.

Concrete broker implementations come in two flavours: the
:class:`InProcessBroker` used by the asyncio runtime, and the virtual-time
:class:`~repro.messaging.simulated.SimulatedBroker` used by the simulation
runtime.  Both take either profile and share the log defined here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.runtime.costs import BrokerProfile

__all__ = ["MessageLog", "Broker", "InProcessBroker"]


class MessageLog:
    """An append-only, offset-addressed log of messages per topic.

    This is the Kafka feature the recovery mechanism relies on: "we exploit
    the ability of Kafka to persist the messages exchanged by the services
    and to replay them on demand" (Section IV-B).
    """

    def __init__(self) -> None:
        self._topics: dict[str, list[Message]] = {}

    def append(self, message: Message) -> int:
        """Store ``message``; returns its offset within its topic."""
        log = self._topics.setdefault(message.topic, [])
        log.append(message)
        return len(log) - 1

    def replay(self, topic: str, from_offset: int = 0) -> list[Message]:
        """Messages of ``topic`` starting at ``from_offset``, in publication order."""
        return list(self._topics.get(topic, [])[from_offset:])

    def size(self, topic: str) -> int:
        """Number of messages stored for ``topic``."""
        return len(self._topics.get(topic, []))


class Broker:
    """Interface shared by every broker implementation."""

    profile: BrokerProfile
    #: observability hooks, attached post-construction by the hosting
    #: runtime; ``None`` — the default — records nothing.
    trace: "Tracer | None" = None
    metrics: "MetricsRegistry | None" = None

    def attach_observability(self, obs: "Observability | None") -> None:
        """Wire the run's tracer/metrics into this broker's publish path."""
        self.trace = obs.active_tracer() if obs is not None else None
        self.metrics = obs.metrics if obs is not None else None

    def publish(self, message: Message) -> None:
        """Publish ``message`` on its topic."""
        raise NotImplementedError

    def subscribe(self, topic: str, callback: Callable[[Message], None]) -> None:
        """Register ``callback`` for every message published on ``topic``."""
        raise NotImplementedError

    def unsubscribe(self, topic: str, callback: Callable[[Message], None]) -> None:
        """Remove a previously registered callback (no error if absent)."""
        raise NotImplementedError

    def replay(self, topic: str, from_offset: int = 0) -> list[Message]:
        """Replay the persisted messages of ``topic`` (persistent brokers only)."""
        raise NotImplementedError

    @property
    def supports_replay(self) -> bool:
        """Whether the broker can replay past messages (Kafka-like)."""
        return self.profile.persistent

    def published_count(self) -> int:
        """Total number of messages published so far (diagnostics)."""
        raise NotImplementedError

    def delivered_count(self) -> int:
        """Total number of messages handed to subscribers so far."""
        raise NotImplementedError


class InProcessBroker(Broker):
    """An in-process broker: the asyncio runtime's transport, on one thread.

    Delivery is synchronous, inside :meth:`publish` (the asyncio runtime's
    subscription queues the message in the driver's FIFO, drained per loop
    turn, so the publisher never runs the consumer's work).
    """

    def __init__(self, profile: BrokerProfile) -> None:
        self.profile = profile
        self._subscribers: dict[str, list[Callable[[Message], None]]] = {}
        self._log = MessageLog() if profile.persistent else None
        self._published = 0
        self._delivered = 0

    def publish(self, message: Message) -> None:
        if self._log is not None:
            self._log.append(message)
        self._published += 1
        callbacks = list(self._subscribers.get(message.topic, []))
        self._delivered += len(callbacks)
        if self.trace is not None:
            self.trace.event(
                "broker.publish", "broker", topic=message.topic, kind=message.kind, sender=message.sender
            )
            if callbacks:
                self.trace.event(
                    "broker.deliver", "broker", topic=message.topic, count=len(callbacks)
                )
        if self.metrics is not None:
            self.metrics.counter("broker.published").inc()
            self.metrics.counter("broker.delivered").inc(len(callbacks))
        for callback in callbacks:
            callback(message)

    def subscribe(self, topic: str, callback: Callable[[Message], None]) -> None:
        self._subscribers.setdefault(topic, []).append(callback)

    def unsubscribe(self, topic: str, callback: Callable[[Message], None]) -> None:
        callbacks = self._subscribers.get(topic, [])
        if callback in callbacks:
            callbacks.remove(callback)

    def replay(self, topic: str, from_offset: int = 0) -> list[Message]:
        if self._log is None:
            raise RuntimeError(f"broker {self.profile.name!r} is not persistent; cannot replay")
        return self._log.replay(topic, from_offset)

    def published_count(self) -> int:
        return self._published

    def delivered_count(self) -> int:
        """Messages actually handed to subscriber callbacks (real accounting,
        not an echo of the publish counter: a message published to a topic
        nobody subscribes to is published but never delivered)."""
        return self._delivered
