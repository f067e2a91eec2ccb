"""GinFlow runtimes: configuration, cost model, reports and execution modes.

This package facade is lazy (module-level ``__getattr__``), so that
``from repro.runtime import GinFlow`` stays a documented import path while
importing any one of its modules loads only that module: the leaf packages
that need one (:mod:`repro.executors.centralized` needs
:mod:`repro.runtime.frozen`) do not drag the runtime stack in, the CLI starts
on :mod:`repro.runtime.config` alone, and a runtime's driver module is
imported only when a run on it is built (its ``"module:attr"`` row of
:data:`~repro.runtime.config.BACKENDS`).
"""

from __future__ import annotations

import importlib

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


def __getattr__(name: str) -> object:
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(module_name, __name__)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
