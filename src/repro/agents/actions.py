"""Actions emitted by a service agent's local reduction.

The decentralised rules (:mod:`repro.agents.local_rules`) do not perform I/O
themselves: when they fire, they record an :class:`Action` describing what
the hosting runtime must do — send a result to another agent, broadcast the
``ADAPT`` marker, start a service invocation, or push a status update to the
shared space.  Keeping the rules pure lets the simulated and the threaded
runtimes share exactly the same agent logic while differing only in how they
execute the actions (virtual-time scheduling vs. real threads and queues).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any

from repro.hocl.engine import Record

__all__ = ["Action", "SendResult", "SendAdapt", "StartInvocation", "StatusUpdate"]

_set = object.__setattr__  # how a constructor stores its fields, past the refusing `__setattr__`


class Action(Record):
    """Base class of every agent action: an immutable :class:`~repro.hocl.engine.Record`
    built by slot stores."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, *value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class SendResult(Action):
    """Send this task's result to ``destination`` (decentralised ``gw_pass``)."""

    __slots__ = ("destination", "value")
    destination: str
    value: Any

    def __init__(self, destination: str, value: Any):
        _set(self, "destination", destination)
        _set(self, "value", value)


class SendAdapt(Action):
    """Send ``count`` ``ADAPT`` markers to ``destination`` (decentralised
    ``trigger_adapt``)."""

    __slots__ = ("destination", "count", "adaptation")
    destination: str
    count: int
    adaptation: str

    def __init__(self, destination: str, count: int = 1, adaptation: str = ""):
        _set(self, "destination", destination)
        _set(self, "count", count)
        _set(self, "adaptation", adaptation)


class StartInvocation(Action):
    """Invoke the task's service with the prepared parameter list."""

    __slots__ = ("service", "parameters")
    service: str
    parameters: tuple[Any, ...]

    def __init__(self, service: str, parameters: tuple[Any, ...] = ()):
        _set(self, "service", service)
        _set(self, "parameters", parameters)


class StatusUpdate(Action):
    """Push the agent's new state to the shared multiset."""

    __slots__ = ("state", "detail")
    state: str
    detail: str

    def __init__(self, state: str, detail: str = ""):
        _set(self, "state", state)
        _set(self, "detail", detail)
