"""ActiveMQ-like broker (transient, low per-message cost).

The real ActiveMQ 5.6 of the paper is a JMS broker used here purely as a
fast, non-persistent transport between service agents.  Because messages are
not durably logged, a workflow executed over this broker cannot use the
agent-recovery mechanism — exactly the trade-off the paper discusses in
Section V-C/V-D.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.backends import register_broker

from .broker import ACTIVEMQ_PROFILE, BrokerProfile, InProcessBroker

__all__ = ["ActiveMQBroker"]


class ActiveMQBroker(InProcessBroker):
    """In-process ActiveMQ-like broker (asyncio runtime)."""

    def __init__(self, profile: BrokerProfile | None = None) -> None:
        super().__init__(profile or ACTIVEMQ_PROFILE)


@register_broker(
    "activemq",
    capabilities={"persistent": False, "broker_class": ActiveMQBroker},
    description="ActiveMQ 5.6-like JMS broker: fast, transient messaging",
)
def _activemq_profile(config: Any) -> BrokerProfile:
    """Broker backend factory (honours cost-model profile overrides)."""
    costs = getattr(config, "costs", None)
    return costs.activemq if costs is not None else ACTIVEMQ_PROFILE
