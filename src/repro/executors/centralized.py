"""The centralised executor.

"The centralised executor will use a single HOCL interpreter to execute the
workflow." (Section IV-C)  The whole concrete workflow (Fig. 8) is folded
into one multiset and reduced by one engine; service invocations happen
synchronously from inside the ``gw_call`` rule through the ``invoke``
external function.

The paper does not evaluate this mode (its experiments are all distributed),
but it is the reference implementation of the chemistry: the distributed
engine must produce the same final results, which the integration tests check.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.hocl import (
    Multiset,
    ReductionEngine,
    ReductionReport,
    Subsolution,
    Symbol,
    TupleAtom,
    default_registry,
    from_atom,
)
from repro.hoclflow import encode_workflow
from repro.hoclflow import keywords as kw
from repro.hoclflow.fields import get_res_atoms, has_error
from repro.hoclflow.generic_rules import register_workflow_externals
from repro.hoclflow.translator import WorkflowEncoding
from repro.records import Record
from repro.runtime.frozen import FrozenSetUp
from repro.services import InvocationContext, ServiceRegistry
from repro.workflow.dag import Workflow

__all__ = ["CentralizedOutcome", "CentralizedExecutor"]


class CentralizedOutcome(Record):
    """Result of a centralised execution; ``timings`` holds the per-phase
    reduction seconds, summed from the engine's spans (traced runs only)."""

    __slots__ = ("solution", "report", "results", "errors", "invocations", "timings")

    def __init__(
        self, solution: Multiset, report: ReductionReport, results: dict[str, Any] | None = None,
        errors: dict[str, str] | None = None, invocations: int = 0, timings: dict[str, float] | None = None,
    ):
        self.solution, self.report, self.invocations, self.timings = solution, report, invocations, timings
        self.results: dict[str, Any] = {} if results is None else results
        self.errors: dict[str, str] = {} if errors is None else errors

    def result_of(self, task_name: str) -> Any:
        """Result value of ``task_name`` (``None`` if it produced none)."""
        return self.results.get(task_name)


class CentralizedExecutor:
    """Single-interpreter execution of an encoded workflow.

    Parameters
    ----------
    registry:
        Service registry resolving task services.
    max_steps:
        Safety bound on total reactions.
    obs:
        Optional :class:`~repro.obs.Observability` bundle: reduction-phase
        spans land on the ``"centralized"`` track, every service call gets
        an ``executor.invoke`` span on the task's track, and the invocation
        counter feeds the metrics registry.
    """

    name = "centralized"

    def __init__(
        self,
        registry: ServiceRegistry | None = None,
        max_steps: int = 1_000_000,
        obs: Any = None,
    ):
        self.registry = registry or ServiceRegistry()
        self.max_steps = max_steps
        self.obs = obs
        self.trace = obs.active_tracer() if obs is not None else None
        self.metrics = obs.metrics if obs is not None else None

    def execute(self, workflow: Workflow) -> CentralizedOutcome:
        """Encode and run ``workflow`` to inertness; collect per-task results."""
        encoding = encode_workflow(workflow)
        return self.execute_encoding(encoding)

    def execute_encoding(self, encoding: WorkflowEncoding) -> CentralizedOutcome:
        """Run an already encoded workflow, its global solution frozen as it is built (as an agent set-up is)."""
        with FrozenSetUp(len(encoding.tasks) + 1) as set_up:
            return self._reduce(encoding, encoding.to_multiset(built=set_up.built))

    def _reduce(self, encoding: WorkflowEncoding, solution: Multiset) -> CentralizedOutcome:
        """Reduce the global ``solution`` of ``encoding``; collect per-task results."""
        invocation_counter = {"count": 0}
        attempts: dict[str, int] = {}

        def invoke(task_name: str, service_name: str, parameters: list[Any]) -> Any:
            invocation_counter["count"] += 1
            attempt = attempts[task_name] = attempts.get(task_name, 0) + 1
            task_encoding = encoding.tasks[task_name]
            service = self.registry.resolve(service_name)
            context = InvocationContext(
                task_name=task_name,
                duration=task_encoding.duration,
                metadata=task_encoding.metadata,
                attempt=attempt,
            )
            trace = self.trace
            started = perf_counter() if trace is not None else 0.0
            outcome = service.invoke(list(parameters), context)
            if trace is not None:
                trace.span(
                    "executor.invoke",
                    task_name,
                    started,
                    perf_counter(),
                    service=service_name,
                    attempt=attempt,
                    failed=outcome.failed,
                )
            if self.metrics is not None:
                self.metrics.counter("executor.invocations").inc()
            if outcome.failed:
                raise RuntimeError(outcome.error or "service invocation failed")
            return outcome.value

        externals = default_registry()
        register_workflow_externals(externals, invoke)

        engine = ReductionEngine(
            externals=externals, max_steps=self.max_steps, trace=self.trace, trace_track="centralized"
        )
        report = engine.reduce(solution)

        results: dict[str, Any] = {}
        errors: dict[str, str] = {}
        for atom in solution.atoms():
            if not (
                isinstance(atom, TupleAtom)
                and len(atom.elements) == 2
                and isinstance(atom.elements[0], Symbol)
                and isinstance(atom.elements[1], Subsolution)
            ):
                continue
            task_name = atom.elements[0].name
            task_solution = atom.elements[1].solution
            if has_error(task_solution):
                errors[task_name] = "ERROR"
            for res_atom in get_res_atoms(task_solution):
                if not (isinstance(res_atom, Symbol) and res_atom.name == kw.ERROR):
                    results[task_name] = from_atom(res_atom)
                    break
        return CentralizedOutcome(
            solution=solution,
            report=report,
            results=results,
            errors=errors,
            invocations=invocation_counter["count"],
            timings=engine.timings,
        )
