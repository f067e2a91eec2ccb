"""Message-queue substrate: messages, the in-process and the simulated broker.

The ActiveMQ-like and Kafka-like broker profiles are cost-model constants of
:mod:`repro.runtime.costs`.
"""

from .broker import Broker, InProcessBroker, MessageLog
from .message import STATUS_TOPIC, Message, MessageKind, adapt_count, agent_topic
from .simulated import SimulatedBroker

__all__ = [
    "Message",
    "MessageKind",
    "adapt_count",
    "agent_topic",
    "STATUS_TOPIC",
    "Broker",
    "InProcessBroker",
    "MessageLog",
    "SimulatedBroker",
]
