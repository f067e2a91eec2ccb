"""Service abstraction and registry.

A *service* implements a workflow task.  A service agent "encapsulates the
invocation of the service" — in this reproduction a service is any object
implementing :class:`Service`.  Two implementations cover every experiment:

* :class:`PythonService` — wraps a Python callable; used by the examples and
  by the centralised/asyncio runtimes when the workflow does real work.
* :class:`SyntheticService` — produces a deterministic placeholder result
  and reports the task's nominal ``duration``; the simulated runtime charges
  that duration to the virtual clock (the real clock does not sleep it).

The :class:`ServiceRegistry` resolves the ``SRV`` field of a task to a
service instance; unknown names fall back to a synthetic service so that
purely structural experiments (all of Section V) need no explicit
registration.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.records import Record

__all__ = [
    "InvocationContext",
    "InvocationResult",
    "Service",
    "PythonService",
    "SyntheticService",
    "ServiceFailure",
    "ServiceRegistry",
]


class ServiceFailure(Exception):
    """Raised by a service invocation to signal failure (becomes ``ERROR``)."""


class InvocationContext(Record):
    """Information available to a service when it is invoked.

    Attributes
    ----------
    task_name:
        The workflow task being executed.
    duration:
        Nominal duration of the task (seconds).
    metadata:
        The task's metadata dictionary (``force_error``, ``stage``, ...).
    attempt:
        1 for the first invocation, incremented on re-invocations after an
        agent recovery.
    """

    __slots__ = ("task_name", "duration", "metadata", "attempt")

    def __init__(self, task_name: str, duration: float = 0.0, metadata: dict[str, Any] | None = None, attempt: int = 1):
        self.task_name, self.duration, self.attempt = task_name, duration, attempt
        self.metadata: dict[str, Any] = {} if metadata is None else metadata


class InvocationResult(Record):
    """Outcome of a service invocation."""

    __slots__ = ("value", "duration", "failed", "error")

    def __init__(self, value: Any, duration: float, failed: bool = False, error: str | None = None):
        self.value, self.duration, self.failed, self.error = value, duration, failed, error


class Service:
    """Base class of every service."""

    #: Whether re-invoking the service after a partial execution is safe.
    #: The recovery mechanism assumes idempotent services (Section IV-B).
    idempotent: bool = True

    def __init__(self, name: str):
        self.name = name

    def invoke(self, parameters: list[Any], context: InvocationContext) -> InvocationResult:
        """Execute the service on ``parameters``; never raises for task-level
        failures (returns ``failed=True`` instead)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"


class PythonService(Service):
    """A service backed by a Python callable ``fn(*parameters)``.

    Exceptions raised by the callable are reported as failed invocations (the
    agent turns them into the ``ERROR`` marker), matching how GinFlow wraps
    real executables.
    """

    def __init__(self, name: str, function: Callable[..., Any], idempotent: bool = True):
        super().__init__(name)
        if not callable(function):
            raise TypeError(f"service {name!r}: function must be callable")
        self.function = function
        self.idempotent = idempotent

    def invoke(self, parameters: list[Any], context: InvocationContext) -> InvocationResult:
        if context.metadata.get("force_error"):
            return InvocationResult(value=None, duration=context.duration, failed=True, error="forced error")
        try:
            value = self.function(*parameters)
        except Exception as exc:  # noqa: BLE001 - converted into a task failure
            return InvocationResult(value=None, duration=context.duration, failed=True, error=str(exc))
        return InvocationResult(value=value, duration=context.duration, failed=False)


class SyntheticService(Service):
    """A service that simulates work: deterministic output, nominal duration.

    The returned value is ``"{task}-out"`` — enough for downstream tasks to
    receive *some* data and for tests to check provenance.  A task whose
    metadata contains ``force_error`` (optionally ``force_error_attempts`` to
    fail only the first *k* attempts) produces a failed invocation, which is
    how the adaptiveness experiments raise their exception.
    """

    def __init__(self, name: str = "synthetic"):
        super().__init__(name)

    def invoke(self, parameters: list[Any], context: InvocationContext) -> InvocationResult:
        metadata = context.metadata
        if metadata.get("force_error"):
            max_attempts = int(metadata.get("force_error_attempts", 0))
            if max_attempts <= 0 or context.attempt <= max_attempts:
                return InvocationResult(
                    value=None, duration=context.duration, failed=True, error="forced error"
                )
        return InvocationResult(
            value=f"{context.task_name}-out", duration=context.duration, failed=False
        )


class ServiceRegistry:
    """Resolves service names to :class:`Service` instances."""

    def __init__(self, default_factory: Callable[[str], Service] | None = None):
        self._services: dict[str, Service] = {}
        self._default_factory = default_factory or SyntheticService

    def register(self, service: Service) -> Service:
        """Register (or replace) ``service`` under its name."""
        self._services[service.name] = service
        return service

    def register_function(self, name: str, function: Callable[..., Any], idempotent: bool = True) -> Service:
        """Shorthand for registering a :class:`PythonService`."""
        return self.register(PythonService(name, function, idempotent=idempotent))

    def knows(self, name: str) -> bool:
        """Whether ``name`` was explicitly registered."""
        return name in self._services

    def resolve(self, name: str) -> Service:
        """The service registered under ``name`` (or a synthetic fallback)."""
        if name in self._services:
            return self._services[name]
        service = self._default_factory(name)
        self._services[name] = service
        return service

    def names(self) -> list[str]:
        """Sorted names of the registered services."""
        return sorted(self._services)

    def copy(self) -> "ServiceRegistry":
        """A shallow copy sharing the service instances."""
        clone = ServiceRegistry(self._default_factory)
        clone._services = dict(self._services)
        return clone
