"""Pluggable backend registry — the extension seam of the GinFlow engine.

Every choice a :class:`~repro.runtime.config.GinFlowConfig` makes by name
(execution mode, distributed executor, messaging middleware, cluster preset)
resolves through this registry instead of hardcoded tuples and if/elif
chains.  Backends come in four *kinds*:

* ``"runtime"`` — execution modes; factory signature
  ``(workflow, config, timeout=None) -> RunReport``;
* ``"executor"`` — distributed provisioning; factory signature
  ``(config) -> DistributedExecutor``;
* ``"broker"`` — messaging middlewares; factory signature
  ``(config) -> BrokerProfile``;
* ``"cluster"`` — infrastructure presets; factory signature
  ``(config) -> Cluster``.

Built-in backends register themselves in the modules that define them
(:mod:`repro.executors.ssh`, :mod:`repro.messaging.kafka`, ...), except the
execution modes, which are listed here by name and load on use; third-party
backends register the same way, through the public decorators, without
touching any engine file::

    from repro import register_broker
    from repro.messaging import BrokerProfile

    @register_broker("inmemory", capabilities={"persistent": True})
    def inmemory_profile(config) -> BrokerProfile:
        return BrokerProfile("inmemory", 0.001, 0.01, persistent=True)

    report = GinFlow().run(workflow, broker="inmemory")

This module deliberately imports nothing from the rest of :mod:`repro`, so
any leaf package can depend on it without creating import cycles; the
built-in implementations are imported lazily by
:func:`ensure_builtin_backends` on first lookup — the execution modes'
driver modules later still, when a run on that mode is built.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "KINDS",
    "Backend",
    "BackendError",
    "BackendRegistry",
    "registry",
    "register_backend",
    "register_runtime",
    "register_executor",
    "register_broker",
    "register_cluster",
    "get_backend",
    "available_runtimes",
    "available_executors",
    "available_brokers",
    "available_clusters",
    "ensure_builtin_backends",
]

#: The backend kinds the engine dispatches on.
KINDS = ("runtime", "executor", "broker", "cluster")


class BackendError(ValueError):
    """Raised on unknown backend names or conflicting registrations."""


@dataclass(frozen=True)
class Backend:
    """One registered backend: a named factory plus advertised capabilities.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    name:
        The public name the configuration refers to (``"kafka"``, ``"ssh"``).
    factory:
        The builder callable; its signature depends on the kind (see the
        module docstring).
    capabilities:
        Free-form feature flags (``persistent``, ``supports_failures``,
        ``virtual_time``, ...) used for validation and discovery — never for
        dispatch, which always goes through :meth:`build`.
    description:
        One-line human description shown by ``ginflow backends``.
    """

    kind: str
    name: str
    factory: Callable[..., Any]
    capabilities: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""

    def build(self, *args: Any, **kwargs: Any) -> Any:
        """Invoke the factory (the only way the engine uses a backend)."""
        return self.factory(*args, **kwargs)

    def capability(self, key: str, default: Any = None) -> Any:
        """The advertised capability ``key`` (``default`` when absent)."""
        return self.capabilities.get(key, default)


class BackendRegistry:
    """A thread-safe registry of :class:`Backend` entries, keyed by kind."""

    def __init__(self) -> None:
        self._backends: dict[str, dict[str, Backend]] = {kind: {} for kind in KINDS}
        self._lock = threading.Lock()

    # --------------------------------------------------------- registration
    def register(
        self,
        kind: str,
        name: str,
        factory: Callable[..., Any] | None = None,
        *,
        capabilities: Mapping[str, Any] | None = None,
        description: str = "",
        replace: bool = False,
    ) -> Callable[..., Any]:
        """Register ``factory`` as the ``kind`` backend called ``name``.

        Usable directly (``register("broker", "x", build_x)``) or as a
        decorator (``@register("broker", "x")``).  Registering a name twice
        raises :class:`BackendError` unless ``replace=True``.
        """
        self._check_kind(kind)

        def _store(func: Callable[..., Any]) -> Callable[..., Any]:
            if not callable(func):
                raise BackendError(f"backend factory for {kind} {name!r} must be callable")
            about = description or _first_doc_line(func)
            with self._lock:
                if not replace and name in self._backends[kind]:
                    raise BackendError(
                        f"{kind} backend {name!r} is already registered "
                        f"(pass replace=True to override it)"
                    )
                self._backends[kind][name] = Backend(
                    kind=kind,
                    name=name,
                    factory=func,
                    capabilities=dict(capabilities or {}),
                    description=about,
                )
            return func

        if factory is None:
            return _store
        return _store(factory)

    def unregister(self, kind: str, name: str) -> None:
        """Remove a backend (no error if absent) — mostly for tests."""
        self._check_kind(kind)
        with self._lock:
            self._backends[kind].pop(name, None)

    # --------------------------------------------------------------- lookup
    def get(self, kind: str, name: str) -> Backend:
        """The backend called ``name``; raises :class:`BackendError` if unknown."""
        self._check_kind(kind)
        with self._lock:
            backend = self._backends[kind].get(name)
            if backend is None:
                known = tuple(self._backends[kind])
                raise BackendError(f"unknown {kind} {name!r}; expected one of {known}")
            return backend

    def has(self, kind: str, name: str) -> bool:
        """Whether a ``kind`` backend called ``name`` is registered."""
        self._check_kind(kind)
        with self._lock:
            return name in self._backends[kind]

    def names(self, kind: str) -> tuple[str, ...]:
        """Registered names of ``kind``, in registration order."""
        self._check_kind(kind)
        with self._lock:
            return tuple(self._backends[kind])

    def backends(self, kind: str | None = None) -> tuple[Backend, ...]:
        """Every registered backend (of one kind, or all kinds)."""
        with self._lock:
            if kind is not None:
                self._check_kind(kind)
                return tuple(self._backends[kind].values())
            return tuple(
                backend for entries in self._backends.values() for backend in entries.values()
            )

    # -------------------------------------------------------------- helpers
    def _check_kind(self, kind: str) -> None:
        if kind not in self._backends:
            raise BackendError(f"unknown backend kind {kind!r}; expected one of {KINDS}")


def _first_doc_line(func: Callable[..., Any]) -> str:
    doc = getattr(func, "__doc__", None) or ""
    for line in doc.strip().splitlines():
        if line.strip():
            return line.strip()
    return ""


#: The process-wide registry every GinFlow configuration resolves against.
registry = BackendRegistry()


# ------------------------------------------------------- public decorators
_Factory = Callable[..., Any]


def register_backend(
    kind: str, name: str, factory: _Factory | None = None, **kwargs: Any
) -> _Factory:
    """Register a backend of any kind on the global registry."""
    return registry.register(kind, name, factory, **kwargs)


def register_runtime(name: str, factory: _Factory | None = None, **kwargs: Any) -> _Factory:
    """Register an execution mode (``(workflow, config, timeout=None) -> RunReport``)."""
    return registry.register("runtime", name, factory, **kwargs)


def register_executor(name: str, factory: _Factory | None = None, **kwargs: Any) -> _Factory:
    """Register a distributed executor (``(config) -> DistributedExecutor``)."""
    return registry.register("executor", name, factory, **kwargs)


def register_broker(name: str, factory: _Factory | None = None, **kwargs: Any) -> _Factory:
    """Register a messaging middleware (``(config) -> BrokerProfile``)."""
    return registry.register("broker", name, factory, **kwargs)


def register_cluster(name: str, factory: _Factory | None = None, **kwargs: Any) -> _Factory:
    """Register a cluster preset (``(config) -> Cluster``)."""
    return registry.register("cluster", name, factory, **kwargs)


# ----------------------------------------------------------- derived views
def get_backend(kind: str, name: str) -> Backend:
    """Resolve one backend from the global registry (built-ins loaded first)."""
    ensure_builtin_backends()
    return registry.get(kind, name)


def available_runtimes() -> tuple[str, ...]:
    """Names of every registered execution mode."""
    ensure_builtin_backends()
    return registry.names("runtime")


def available_executors() -> tuple[str, ...]:
    """Names of every registered distributed executor."""
    ensure_builtin_backends()
    return registry.names("executor")


def available_brokers() -> tuple[str, ...]:
    """Names of every registered messaging middleware."""
    ensure_builtin_backends()
    return registry.names("broker")


def available_clusters() -> tuple[str, ...]:
    """Names of every registered cluster preset."""
    ensure_builtin_backends()
    return registry.names("cluster")


#: Legacy tuple names resolved as live registry views by the module
#: ``__getattr__`` hooks of :mod:`repro.runtime` and
#: :mod:`repro.runtime.config` (single source of truth for both).
DERIVED_VIEWS: dict[str, Callable[[], tuple[str, ...]]] = {
    "EXECUTION_MODES": available_runtimes,
    "EXECUTORS": available_executors,
    "BROKERS": available_brokers,
}


# ------------------------------------------------------ built-in backends
#: The built-in execution modes, in the order `available_runtimes()` and the
#: CLI choices show them: name, ``module:function`` of the driver,
#: capabilities, description.  Listing a runtime must not cost its driver's
#: imports (``repro.runtime.aio`` alone pulls in asyncio, ssl, socket,
#: subprocess, selectors), so the module is imported when the runtime is built.
_BUILTIN_RUNTIMES: tuple[tuple[str, str, dict[str, Any], str], ...] = (
    (
        "centralized",
        "repro.runtime.ginflow:run_centralized",
        {"distributed": False, "supports_failures": False, "wall_clock": True},
        "single HOCL interpreter with synchronous service calls",
    ),
    (
        "simulated",
        "repro.runtime.simulation:run_simulation",
        {"distributed": True, "virtual_time": True, "supports_failures": True, "deterministic": True},
        "virtual-time distributed simulation over the modelled cluster",
    ),
    (
        "threaded",
        "repro.runtime.threaded:run_threaded",
        {"distributed": False, "wall_clock": True, "supports_failures": False},
        "real threads and an in-process broker on the local machine",
    ),
    (
        "asyncio",
        "repro.runtime.aio:run_asyncio",
        {"distributed": False, "wall_clock": True, "supports_failures": False, "single_threaded": True},
        "one asyncio event loop: every stimulus a callback, concurrency without threads",
    ),
)

#: Modules whose import registers the other built-in backends (in
#: registration order — what `available_*()` and the CLI choices show).
_BUILTIN_MODULES = (
    "repro.executors.ssh",
    "repro.executors.mesos",
    "repro.messaging.activemq",
    "repro.messaging.kafka",
    "repro.cluster.grid5000",
    "repro.cluster.presets",
)

_builtins_loaded = False
# Reentrant so that a built-in module triggering a lookup *while it loads*
# (same thread) re-enters harmlessly; other threads block until the load
# finishes instead of seeing a half-populated registry.
_builtins_lock = threading.RLock()


def _driver(entry: str) -> _Factory:
    """The runtime factory ``module:function``, its module imported at the first build."""
    module_name, _, function = entry.partition(":")

    def build(workflow: Any, config: Any, timeout: float | None = None) -> Any:
        return getattr(importlib.import_module(module_name), function)(workflow, config, timeout)

    return build


def ensure_builtin_backends() -> None:
    """Register every built-in backend exactly once (idempotent, thread-safe)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    with _builtins_lock:
        if _builtins_loaded:
            return
        for name, entry, capabilities, description in _BUILTIN_RUNTIMES:
            register_runtime(name, _driver(entry), capabilities=capabilities, description=description)
        for module_name in _BUILTIN_MODULES:
            importlib.import_module(module_name)
        _builtins_loaded = True
