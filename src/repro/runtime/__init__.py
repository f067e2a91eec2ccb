"""GinFlow runtimes: configuration, cost model, reports, execution modes and
the pluggable backend registry.

This package facade is lazy (module-level ``__getattr__``) for two reasons:

* leaf packages (:mod:`repro.messaging`, :mod:`repro.executors`,
  :mod:`repro.cluster`) import :mod:`repro.runtime.backends` to register
  their backends, and must be able to do so without dragging the whole
  runtime stack in (which would create import cycles);
* ``EXECUTION_MODES`` / ``EXECUTORS`` / ``BROKERS`` are *derived views* of
  the registry — they always reflect every registered backend, including
  third-party ones, instead of being frozen tuples.
"""

from __future__ import annotations

import importlib

from . import backends
from .backends import (
    Backend,
    BackendError,
    BackendRegistry,
    available_brokers,
    available_clusters,
    available_executors,
    available_runtimes,
    get_backend,
    register_broker,
    register_cluster,
    register_executor,
    register_runtime,
)

__all__ = [
    "GinFlow",
    "GinFlowConfig",
    "CostModel",
    "RunReport",
    "TaskOutcome",
    "SimulatedRun",
    "run_simulation",
    "AsyncioRun",
    "run_asyncio",
    "EnactmentEngine",
    "AgentHost",
    "ReportAssembler",
    "EXECUTION_MODES",
    "EXECUTORS",
    "BROKERS",
    "backends",
    "Backend",
    "BackendError",
    "BackendRegistry",
    "get_backend",
    "register_runtime",
    "register_executor",
    "register_broker",
    "register_cluster",
    "available_runtimes",
    "available_executors",
    "available_brokers",
    "available_clusters",
]

# Lazily resolved attributes: name -> (module, attribute).
_LAZY = {
    "GinFlow": (".ginflow", "GinFlow"),
    "GinFlowConfig": (".config", "GinFlowConfig"),
    "CostModel": (".costs", "CostModel"),
    "RunReport": (".results", "RunReport"),
    "TaskOutcome": (".results", "TaskOutcome"),
    "SimulatedRun": (".simulation", "SimulatedRun"),
    "run_simulation": (".simulation", "run_simulation"),
    "AsyncioRun": (".aio", "AsyncioRun"),
    "run_asyncio": (".aio", "run_asyncio"),
    "EnactmentEngine": (".enactment", "EnactmentEngine"),
    "AgentHost": (".enactment", "AgentHost"),
    "ReportAssembler": (".enactment", "ReportAssembler"),
}

# Registry-derived views (recomputed on every access, never cached).
_DERIVED = backends.DERIVED_VIEWS


def __getattr__(name: str) -> object:
    if name in _DERIVED:
        return _DERIVED[name]()
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(module_name, __name__)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | set(_DERIVED))
