"""Virtual-time broker used by the simulation runtime.

The broker owns ``dispatchers`` serial dispatchers: every published message
occupies a dispatcher for the profile's ``per_message_time``, then travels
over the network model and is delivered to the subscribed callbacks.  This
serialisation is what makes message-heavy workflows (the fully-connected
diamonds of Fig. 12(b), the Kafka columns of Fig. 14) pay for their traffic.

A message is one kernel entry, its arrival.  A dispatcher is a FIFO server
with a constant service time ``c``, so its finish is Lindley's recursion
(Lindley, 1952), ``f_k = max(p_k, f_{k-1}) + c`` with ``p_k`` the publish
instant: :meth:`SimulatedBroker.publish` computes it, draws the network jitter
and queues the delivery at ``now + (f_k - now) + (delivery_overhead +
transfer)``, the float a "dispatcher done" entry and a network hop gave.

That entry drew the jitter, so the draws followed completion order; drawn at
publish, they follow publish order.  The two agree: publishes go round-robin
by the broker's own count (not the process-wide message id, which other code
in the process moves), so publish ``n`` shares a dispatcher with ``n - k``
and, by induction (``p_n >= p_{n-1}``, ``f_{n-k} >= f_{n-k-1}``),
``f_n >= f_{n-1}``.  With one dispatcher consecutive finishes lie ``c``
apart.  With several, two can finish at the same ``f``, and an entry at
``now + (f - now)`` may then round the later publish's one ulp earlier: there
alone the draws differ (``tests/broker_oracle.py`` is the two-entry broker;
no pinned timeline has such a tie).

Persistent profiles (Kafka) additionally append every message to a
:class:`~repro.messaging.broker.MessageLog`, from which recovered agents
replay their history.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.cluster.network import NetworkModel
from repro.simkernel import RandomStreams, Simulator

from .broker import Broker, MessageLog
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.costs import BrokerProfile

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
        #: the instant each dispatcher next falls idle
        self._idle_at = [0.0] * dispatchers
        self._subscribers: dict[str, list[Callable[[Message], None]]] = {}
        self._log = MessageLog() if profile.persistent else None
        self._published = 0
        self._delivered = 0

    # -------------------------------------------------------------- publish
    def publish(self, message: Message) -> None:
        """Publish ``message``; subscribers receive it after the modelled delays."""
        lane = self._published % len(self._idle_at)  # round-robin: the argument of the module docstring
        self._published += 1
        if self.trace is not None:
            self.trace.event(
                "broker.publish", "broker", topic=message.topic, kind=message.kind, sender=message.sender
            )
        if self.metrics is not None:
            self.metrics.counter("broker.published").inc()
        if self._log is not None:
            self._log.append(message)
        sim, profile, idle_at = self.sim, self.profile, self._idle_at
        now = sim.now
        # Lindley's recursion: the dispatcher serves its FIFO queue in `per_message_time` each
        finish = idle_at[lane] = max(now, idle_at[lane]) + profile.per_message_time
        transfer = self.network.transfer_time(message.size_bytes, self._jitter())
        # the dispatcher's `now + (finish - now)`, then the network hop: the last bit counts
        arrival = now + (finish - now) + (profile.delivery_overhead + transfer)
        heappush(sim.queue, (arrival, sim.ticket(), self._deliver, (message,)))

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
