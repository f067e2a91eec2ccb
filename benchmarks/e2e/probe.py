"""Outside-in timing probe: spans around the public functions of each layer.

``Probe.install`` replaces the functions listed in :func:`_targets` by timing
wrappers (rebinding every ``repro.*`` module that already imported the name,
e.g. ``encode_workflow`` in ``repro.runtime.simulation``) and
``Probe.uninstall`` puts every original back.  Nothing under ``src/`` knows
about the probe; it never changes what the program computes.

A span is one call: name, start, end, and the span it was called from.  A
layer's *self* time is its spans' duration minus the part their child spans
cover, kept on a per-thread span stack, so the self times of all layers sum to
the traced wall without counting anything twice.  Every ``*_s`` per-layer
metric is such a self time.  Counts are taken at the same boundaries, from the
values the wrapped call returned.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable

__all__ = ["Probe", "layer_metrics"]

Hook = Callable[[dict[str, float], Any, tuple], None]


def _count_reduction(counters: dict[str, float], report: Any, args: tuple) -> None:
    counters["hocl.reactions"] += report.reactions
    counters["hocl.match_attempts"] += report.match_attempts


def _count_scenario(counters: dict[str, float], workflow: Any, args: tuple) -> None:
    counters["scenarios.tasks"] += len(workflow)


def _count_events(counters: dict[str, float], result: Any, args: tuple) -> None:
    counters["simkernel.events"] = args[0].processed_events


def _count_replayed(counters: dict[str, float], messages: Any, args: tuple) -> None:
    counters["messaging.replayed"] += len(messages)


def _count_messages(counters: dict[str, float], report: Any, args: tuple) -> None:
    transport = args[0].engine.transport  # the counters the report itself reads
    counters["messaging.published"] = transport.published_count()
    counters["messaging.delivered"] = transport.delivered_count()


def _count_failed_invocation(counters: dict[str, float], outcome: Any, args: tuple) -> None:
    counters["services.failed_invocations"] += bool(outcome.failed)


COUNTERS = (
    "hocl.reactions",
    "hocl.match_attempts",
    "scenarios.tasks",
    "simkernel.events",
    "messaging.replayed",
    "messaging.published",
    "messaging.delivered",
    "services.failed_invocations",
)


def _targets() -> list[tuple[Any, str, str, Hook | None]]:
    """(owner, attribute, span name, count hook) of every wrapped function."""
    from importlib import import_module

    from repro.agents.core import AgentCore
    from repro.executors.centralized import CentralizedExecutor
    from repro.executors.mesos import MesosExecutor
    from repro.executors.ssh import SSHExecutor
    from repro.hocl.engine import ReductionEngine
    from repro.messaging.broker import InProcessBroker
    from repro.messaging.simulated import SimulatedBroker
    from repro.runtime.enactment.engine import EnactmentEngine
    from repro.runtime.enactment.report import ReportAssembler
    from repro.runtime.ginflow import GinFlow
    from repro.services.service import PythonService, SyntheticService
    from repro.simkernel.sim import Simulator
    from repro.workflow.dag import Workflow

    # modules by path: the attribute repro.scenarios.registry is the registry object
    scenarios = import_module("repro.scenarios.registry")
    json_format = import_module("repro.workflow.json_format")
    translator = import_module("repro.hoclflow.translator")
    cli = import_module("repro.cli")
    stimuli = ("boot", "receive_result", "receive_adapt", "invocation_succeeded", "invocation_failed")
    return [
        (cli, "build_parser", "cli.parser", None),
        (scenarios, "build_scenario", "scenarios.build", _count_scenario),
        (json_format, "workflow_from_json", "workflow.load", None),
        (Workflow, "validate", "workflow.validate", None),
        (translator, "encode_workflow", "hoclflow.encode", None),
        (AgentCore, "__init__", "agents.init", None),
        *((AgentCore, stimulus, "agents.stimulus", None) for stimulus in stimuli),
        (AgentCore, "status", "agents.status", None),
        (ReductionEngine, "reduce", "hocl.reduce", _count_reduction),
        (GinFlow, "run", "runtime.driver", None),
        (EnactmentEngine, "dispatch", "runtime.enactment.dispatch", None),
        (EnactmentEngine, "record_status", "runtime.enactment.status", None),
        (EnactmentEngine, "recover", "runtime.enactment.recover", None),
        (ReportAssembler, "assemble", "runtime.enactment.report", _count_messages),
        *((broker, "publish", "messaging.publish", None) for broker in (SimulatedBroker, InProcessBroker)),
        *((broker, "replay", "messaging.replay", _count_replayed) for broker in (SimulatedBroker, InProcessBroker)),
        (Simulator, "run", "simkernel.loop", _count_events),
        *((executor, "plan", "executors.plan", None) for executor in (SSHExecutor, MesosExecutor)),
        (CentralizedExecutor, "execute", "executors.centralized", None),
        # the service classes, not PreparedInvocation.invoke: the centralised
        # executor calls services directly, and this sees both paths
        *((service, "invoke", "services.invoke", _count_failed_invocation)
          for service in (SyntheticService, PythonService)),
    ]


_RAISED = object()


class Probe:
    """Timing wrappers on the layer boundaries, their spans and their totals."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds]
        self.stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        #: (span id, parent span id or None, name, start, end), perf_counter seconds
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: (owner, attribute, original) of every attribute install() rebound
        self._patched: list[tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- wrapping
    def _wrap(self, name: str, function: Callable[..., Any], hook: Hook | None) -> Callable[..., Any]:
        stat = self.stats.setdefault(name, [0, 0.0])
        counters, spans, ids, local = self.counters, self.spans, self._ids, self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # span id, seconds covered by child spans
            stack.append(frame)
            result = _RAISED
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], parent[0] if parent is not None else None, name, start, end))
                if hook is not None and result is not _RAISED:
                    hook(counters, result, args)

        return wrapper

    def install(self) -> "Probe":
        """Wrap every target (and every ``repro.*`` name already bound to it)."""
        if self._patched:
            raise RuntimeError("probe already installed")
        for owner, attribute, name, hook in _targets():
            original = vars(owner)[attribute]
            wrapper = self._wrap(name, original, hook)
            holders = [owner]
            if not isinstance(owner, type):
                # a module-level function: other modules hold it by name too
                holders += [
                    module for module_name, module in list(sys.modules.items())
                    if module_name.startswith("repro") and module is not owner
                    and vars(module).get(attribute) is original
                ]
            for holder in holders:
                self._patched.append((holder, attribute, original))
                setattr(holder, attribute, wrapper)
        return self

    def uninstall(self) -> bool:
        """Put every original back; ``True`` when every attribute is restored."""
        for holder, attribute, original in reversed(self._patched):
            setattr(holder, attribute, original)
        restored = all(vars(holder)[attribute] is original for holder, attribute, original in self._patched)
        self._patched.clear()
        return restored

    # --------------------------------------------------------------- results
    def totals(self) -> dict[str, Any]:
        """The JSON-safe totals a traced child hands back to the harness."""
        return {"stats": self.stats, "counters": self.counters}

    def write_spans(self, path: str) -> None:
        """One JSON line per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                ) + "\n")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    """``numerator / denominator`` (0 when nothing was attempted)."""
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced run, from :meth:`Probe.totals`.

    ``cli.*`` and ``trace.*`` come from process timestamps, not spans; the
    harness adds them.
    """
    stats, counters = totals["stats"], totals["counters"]

    def calls(name: str) -> float:
        return stats.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0))[1]

    return {
        "cli.parser_s": self_s("cli.parser"),
        "scenarios.build_s": self_s("scenarios.build"),
        "scenarios.tasks": counters["scenarios.tasks"],
        "workflow.load_s": self_s("workflow.load"),
        "workflow.validate_s": self_s("workflow.validate"),
        "workflow.validate_calls": calls("workflow.validate"),
        "hoclflow.encode_s": self_s("hoclflow.encode"),
        "agents.init_s": self_s("agents.init"),
        "agents.init_calls": calls("agents.init"),
        "agents.stimulus_self_s": self_s("agents.stimulus"),
        "agents.stimulus_calls": calls("agents.stimulus"),
        "agents.us_per_stimulus": _ratio(self_s("agents.stimulus"), calls("agents.stimulus"), 1e6),
        "agents.status_s": self_s("agents.status"),
        "hocl.reduce_s": self_s("hocl.reduce"),
        "hocl.reduce_calls": calls("hocl.reduce"),
        "hocl.reactions": counters["hocl.reactions"],
        "hocl.match_attempts": counters["hocl.match_attempts"],
        "hocl.us_per_reaction": _ratio(self_s("hocl.reduce"), counters["hocl.reactions"], 1e6),
        "hocl.match_hit_ratio": _ratio(counters["hocl.reactions"], counters["hocl.match_attempts"]),
        "runtime.driver_self_s": self_s("runtime.driver"),
        "runtime.enactment.dispatch_self_s": self_s("runtime.enactment.dispatch"),
        "runtime.enactment.dispatch_calls": calls("runtime.enactment.dispatch"),
        "runtime.enactment.status_s": self_s("runtime.enactment.status"),
        "runtime.enactment.recover_s": self_s("runtime.enactment.recover"),
        "runtime.enactment.recover_calls": calls("runtime.enactment.recover"),
        "runtime.enactment.report_s": self_s("runtime.enactment.report"),
        "messaging.publish_self_s": self_s("messaging.publish"),
        "messaging.published": counters["messaging.published"],
        "messaging.delivered": counters["messaging.delivered"],
        "messaging.delivery_ratio": _ratio(counters["messaging.delivered"], counters["messaging.published"]),
        "messaging.replay_s": self_s("messaging.replay"),
        "messaging.replayed": counters["messaging.replayed"],
        "simkernel.loop_self_s": self_s("simkernel.loop"),
        "simkernel.events": counters["simkernel.events"],
        "simkernel.us_per_event": _ratio(self_s("simkernel.loop"), counters["simkernel.events"], 1e6),
        "executors.plan_s": self_s("executors.plan"),
        "executors.centralized_self_s": self_s("executors.centralized"),
        "services.invoke_s": self_s("services.invoke"),
        "services.invocations": calls("services.invoke"),
        "services.failed_invocations": counters["services.failed_invocations"],
    }
