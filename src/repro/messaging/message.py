"""Messages exchanged between service agents and the shared space.

Three kinds of messages circulate in GinFlow (Section IV-A):

* ``RESULT`` — a task's result transferred point-to-point to one destination
  agent (the decentralised ``gw_pass``);
* ``ADAPT`` — the adaptation marker sent by the agent that detected a
  failure to the agents that must reconfigure themselves;
* ``STATUS`` — the update every agent pushes to the shared multiset so that
  the workflow status stays observable.

Messages are immutable value objects (a named tuple: one is built per hop of
every run, so building one costs a tuple, not a dataclass); the broker assigns
the delivery metadata (offset, delivery time).
"""

from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple

__all__ = ["MessageKind", "Message", "agent_topic", "adapt_count", "STATUS_TOPIC", "new_message"]

#: Topic on which every agent publishes its status updates (the shared multiset).
STATUS_TOPIC = "ginflow.status"


class MessageKind:
    """String constants naming the message kinds."""

    RESULT = "RESULT"
    ADAPT = "ADAPT"
    STATUS = "STATUS"
    CONTROL = "CONTROL"


def agent_topic(task_name: str) -> str:
    """The broker topic on which the agent managing ``task_name`` listens."""
    return f"ginflow.agent.{task_name}"


def adapt_count(payload: Any) -> int:
    """Number of ``ADAPT`` markers carried by an ADAPT message payload.

    This is THE coercion applied to an ADAPT payload — the live delivery path
    and the log-replay recovery path must both use it, otherwise a replayed
    agent can inject a different number of markers than the agent it replaces
    and diverge from the state the replay is meant to rebuild (Section IV-B).
    ``None`` (a bare marker message) means one marker.
    """
    return int(payload) if payload is not None else 1


class Message(NamedTuple):
    """One message published on a broker topic (an immutable record).

    Attributes
    ----------
    topic:
        Destination topic (one per agent, plus the status topic).
    kind:
        One of :class:`MessageKind`.
    sender:
        Task name (or ``"coordinator"``) of the producer.
    recipient:
        Task name of the intended consumer (informational; the topic already
        routes the message).
    payload:
        Message body: for ``RESULT`` the produced value, for ``ADAPT`` the
        number of markers to inject, for ``STATUS`` a state dictionary.
    size_bytes:
        Approximate serialised size, used by the network model.
    """

    topic: str
    kind: str
    sender: str
    recipient: str
    payload: Any = None
    size_bytes: int = 512


#: ``new_message((topic, kind, sender, recipient, payload, size_bytes))``:
#: a :class:`Message` from all six fields, with no Python frame — what the
#: enactment engine builds once per send
new_message = partial(tuple.__new__, Message)
