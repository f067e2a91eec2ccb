"""Agent fault recovery through message replay (Section IV-B).

"The state of a SA is reflected by the state of its local solution.  Changes
in the local solution can result from two mutually exclusive actions: (a)
reception of new molecules and (b) reduction of the local solution. [...]
Consequently, being able to log all incoming molecules of a SA and replay
them in the same order on a newly created SA will lead the second SA in the
same state as the first."

:func:`rebuild_agent` does exactly that: it creates a fresh
:class:`~repro.agents.core.AgentCore` from the task's encoding, boots it, and
re-applies the logged ``RESULT``/``ADAPT`` messages in their original order.
The actions produced during the replay are returned so the runtime can decide
what to re-execute — typically the service invocation (services are assumed
idempotent) and the result re-sends, whose duplicates downstream agents
ignore thanks to the one-shot rules.
"""

from __future__ import annotations

from repro.hoclflow.translator import TaskEncoding
from repro.messaging.message import Message, MessageKind, adapt_count

from .actions import Action
from .core import AgentCore

__all__ = ["replay_messages", "rebuild_agent"]


def replay_messages(core: AgentCore, messages: list[Message]) -> list[Action]:
    """Re-apply logged incoming messages to ``core`` in order; collect actions."""
    actions: list[Action] = []
    for message in messages:
        if message.kind == MessageKind.RESULT:
            actions.extend(core.receive_result(message.sender, message.payload))
        elif message.kind == MessageKind.ADAPT:
            # same coercion as EnactmentEngine.deliver, by construction
            actions.extend(core.receive_adapt(adapt_count(message.payload)))
        # STATUS/CONTROL messages do not change an agent's local solution.
    return actions


def rebuild_agent(
    encoding: TaskEncoding, logged_messages: list[Message], core: AgentCore | None = None
) -> tuple[AgentCore, list[Action]]:
    """Create a replacement agent and bring it to the failed agent's state.

    ``core`` is the fresh core to replay into — the runtime passes one wired
    like the agent being replaced (same tracer); by default a plain
    ``AgentCore(encoding)``.  Returns the core and the
    combined actions produced by the boot and the replay (the runtime
    re-executes the invocation and the sends; the duplicate sends are
    harmless by construction).
    """
    if core is None:
        core = AgentCore(encoding)
    actions = list(core.boot())
    actions.extend(replay_messages(core, logged_messages))
    return core, actions
