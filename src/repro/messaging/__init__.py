"""Message-queue substrate: ActiveMQ-like and Kafka-like broker profiles."""

from .broker import (
    ACTIVEMQ_PROFILE,
    KAFKA_PROFILE,
    Broker,
    BrokerProfile,
    InProcessBroker,
    MessageLog,
)
from .message import STATUS_TOPIC, Message, MessageKind, adapt_count, agent_topic
from .simulated import SimulatedBroker

__all__ = [
    "Message",
    "MessageKind",
    "adapt_count",
    "agent_topic",
    "STATUS_TOPIC",
    "Broker",
    "BrokerProfile",
    "InProcessBroker",
    "MessageLog",
    "ACTIVEMQ_PROFILE",
    "KAFKA_PROFILE",
    "SimulatedBroker",
]
