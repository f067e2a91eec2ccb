"""``repro.obs`` — structured tracing, metrics and logging for every run.

The observability substrate every layer instruments against:

* :class:`Tracer` and its implementations (:class:`NullTracer` — the
  zero-overhead default, :class:`RecordingTracer`, streaming
  :class:`JsonlTracer`), recording spans/events stamped with
  ``perf_counter`` wall time and, under the simulated runtime, virtual
  time;
* :class:`MetricsRegistry` — counters/gauges/histograms, read with
  ``obs.metrics.snapshot()`` once the run returned;
* the trace file formats (native JSONL and Chrome trace-event for
  Perfetto, :mod:`repro.obs.export`) and the rollups behind ``ginflow
  trace summarize`` (:mod:`repro.obs.summarize`), imported from their own
  modules so that a run without ``--trace`` loads neither;
* stdlib-logging wiring (``repro.*`` logger namespace, NullHandler
  default, ``ginflow --log-level``).

An :class:`Observability` bundle (tracer + metrics) rides on
:class:`~repro.runtime.config.GinFlowConfig` and is threaded by each
runtime into the agents, the reduction engines, the brokers and the
executors.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

from repro.records import Record

from .logs import configure_logging, get_logger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import (
    EventRecord,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    SpanRecord,
    Tracer,
    active,
    record_from_json,
)

__all__ = [
    "Observability",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
    "SpanRecord",
    "EventRecord",
    "record_from_json",
    "active",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_logger",
    "configure_logging",
]

#: the default of ``Observability.metrics``: a registry of the bundle's own
_FRESH: Any = object()


class Observability(Record):
    """The per-run observability bundle: one tracer, one metrics registry.

    ``Observability()`` is fully enabled, on a fresh registry (a recording
    tracer would still need to be supplied); the *absence* of a bundle —
    ``config.obs is None``, the default — is the zero-overhead off state.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Tracer | None = None, metrics: MetricsRegistry | None = _FRESH):
        self.tracer = tracer
        self.metrics = MetricsRegistry() if metrics is _FRESH else metrics

    def active_tracer(self) -> Tracer | None:
        """The tracer normalised for hot-seam guards (see :func:`active`)."""
        return active(self.tracer)

    @contextmanager
    def watching_gc(self) -> Iterator[None]:
        """Measure the cyclic collector while the block runs (a ``gc.callbacks`` hook).

        Every collection adds its pause to the ``gc.pause_s`` counter, one to
        ``gc.collections.gen<N>``, and a ``gc.collect`` span to the ``gc``
        track.  A collection can start under any lock the tracer or the
        registry holds, so the hook only touches counters resolved up front
        and a list; the spans are recorded when the block ends.
        """
        tracer, metrics = self.active_tracer(), self.metrics or MetricsRegistry()
        pause = metrics.counter("gc.pause_s")
        collections = [metrics.counter(f"gc.collections.gen{generation}") for generation in range(3)]
        spans: list[SpanRecord] = []
        started = 0.0

        def on_gc(phase: str, info: dict[str, int]) -> None:
            nonlocal started
            if phase == "start":
                started = perf_counter()
                return
            ended = perf_counter()
            pause.inc(ended - started)
            collections[info["generation"]].inc()
            if tracer is not None:
                vt = tracer.vt_source() if tracer.vt_source is not None else None
                spans.append(SpanRecord("gc.collect", "gc", started, ended, vt, {"generation": info["generation"]}))

        gc.callbacks.append(on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(on_gc)
            if tracer is not None:
                for span in spans:
                    tracer.record_span(span)
