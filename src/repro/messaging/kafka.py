"""Kafka-like broker (persistent, replayable, higher per-message cost).

The Kafka 0.8 deployment of the paper is modelled by a broker that appends
every published message to an offset-addressed per-topic log and can replay
it on demand — the property the SA recovery mechanism of Section IV-B relies
on.  Its per-message cost is ≈ 4× ActiveMQ's, which reproduces the execution
time gap of Fig. 14.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.backends import register_broker

from .broker import KAFKA_PROFILE, BrokerProfile, InProcessBroker
from .message import Message

__all__ = ["KafkaBroker"]


class KafkaBroker(InProcessBroker):
    """In-process Kafka-like broker (asyncio runtime)."""

    def __init__(self, profile: BrokerProfile | None = None) -> None:
        super().__init__(profile or KAFKA_PROFILE)

    def consumer_offset(self, topic: str) -> int:
        """Current end-of-log offset for ``topic`` (next message's offset)."""
        return self._log.size(topic) if self._log is not None else 0

    def replay_from_beginning(self, topic: str) -> list[Message]:
        """Every message ever published on ``topic`` (offset 0 onwards)."""
        return self.replay(topic, 0)


@register_broker(
    "kafka",
    capabilities={"persistent": True, "broker_class": KafkaBroker},
    description="Kafka 0.8-like broker: persistent, replayable, ~4x ActiveMQ's cost",
)
def _kafka_profile(config: Any) -> BrokerProfile:
    """Broker backend factory (honours cost-model profile overrides)."""
    costs = getattr(config, "costs", None)
    return costs.kafka if costs is not None else KAFKA_PROFILE
