"""Virtual-time broker used by the simulation runtime.

The broker owns a single serial dispatcher (a
:class:`~repro.simkernel.SerialQueue`): every published message occupies the
dispatcher for the profile's ``per_message_time``, then travels over the
network model and is delivered to the subscribed callback — two modelled
hops, two kernel entries, each a bound method carrying the message.  This
serialisation is what makes message-heavy workflows (the fully-connected
diamonds of Fig. 12(b), the Kafka columns of Fig. 14) pay for their traffic.

Persistent profiles (Kafka) additionally append every message to a
:class:`~repro.messaging.broker.MessageLog`, from which recovered agents
replay their history.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.network import NetworkModel
from repro.simkernel import RandomStreams, SerialQueue, Simulator

from .broker import Broker, BrokerProfile, MessageLog
from .message import Message

__all__ = ["SimulatedBroker"]


class SimulatedBroker(Broker):
    """Broker model living inside the discrete-event simulation."""

    def __init__(
        self,
        sim: Simulator,
        profile: BrokerProfile,
        network: NetworkModel | None = None,
        randomness: RandomStreams | None = None,
        dispatchers: int = 1,
    ) -> None:
        if dispatchers < 1:
            raise ValueError("a broker needs at least one dispatcher")
        self.sim = sim
        self.profile = profile
        self.network = network or NetworkModel()
        self.randomness = randomness or RandomStreams(0)
        self._jitter = self.randomness.uniforms("broker-jitter")
        self._queues = [SerialQueue(sim, name=f"{profile.name}-dispatcher-{i}") for i in range(dispatchers)]
        self._subscribers: dict[str, list[Callable[[Message], None]]] = {}
        self._log = MessageLog() if profile.persistent else None
        self._published = 0
        self._delivered = 0

    # -------------------------------------------------------------- publish
    def publish(self, message: Message) -> None:
        """Publish ``message``; subscribers receive it after the modelled delays."""
        self._published += 1
        if self.trace is not None:
            self.trace.event(
                "broker.publish", "broker", topic=message.topic, kind=message.kind, sender=message.sender
            )
        if self.metrics is not None:
            self.metrics.counter("broker.published").inc()
        if self._log is not None:
            self._log.append(message)
        queue = self._queues[message.message_id % len(self._queues)]
        queue.submit(self.profile.per_message_time, self._dispatched, message)

    def _dispatched(self, message: Message) -> None:
        # the jitter is drawn here, when the dispatcher is done with the
        # message: in completion order, not publish order
        transfer = self.network.transfer_time(message.size_bytes, next(self._jitter))
        self.sim.call_in(self.profile.delivery_overhead + transfer, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        # Count one delivery per subscriber actually handed the message (a
        # message with no subscriber is lost, not delivered — counting it
        # would mask exactly the accounting drift `ginflow audit` checks).
        callbacks = list(self._subscribers.get(message.topic, []))
        self._delivered += len(callbacks)
        if callbacks and self.trace is not None:
            self.trace.event("broker.deliver", "broker", topic=message.topic, count=len(callbacks))
        if self.metrics is not None:
            self.metrics.counter("broker.delivered").inc(len(callbacks))
        for callback in callbacks:
            callback(message)

    # ------------------------------------------------------------ subscribe
    def subscribe(self, topic: str, callback: Callable[[Message], None]) -> None:
        self._subscribers.setdefault(topic, []).append(callback)

    def unsubscribe(self, topic: str, callback: Callable[[Message], None]) -> None:
        callbacks = self._subscribers.get(topic, [])
        if callback in callbacks:
            callbacks.remove(callback)

    # --------------------------------------------------------------- replay
    def replay(self, topic: str, from_offset: int = 0) -> list[Message]:
        if self._log is None:
            raise RuntimeError(f"broker {self.profile.name!r} is not persistent; cannot replay")
        return self._log.replay(topic, from_offset)

    # ----------------------------------------------------------- statistics
    def published_count(self) -> int:
        return self._published

    def delivered_count(self) -> int:
        """Messages actually handed to subscribers so far."""
        return self._delivered

    def backlog_seconds(self) -> float:
        """Work currently queued on the busiest dispatcher (diagnostics)."""
        return max(queue.backlog for queue in self._queues)
