"""The tracer seam: spans and events, recorded with zero overhead when off.

A *span* is one timed unit of work (a reduction phase, an agent stimulus, a
service invocation) on a named *track* (one track per agent, plus tracks for
the broker and the executors).  An *event* is an instantaneous point (a
broker publish, a STATUS update).  Both carry wall-clock timestamps from
``time.perf_counter()`` — the reduction engine's per-phase timings are the
sums of its spans — and, when the hosting runtime runs under virtual time, a
``vt`` stamp read from its virtual clock
(:meth:`~repro.runtime.simulation.SimulatedRun.now`).

The zero-overhead contract: every instrumented seam stores ``None`` (not a
:class:`NullTracer`) when tracing is off and guards each record with a
single ``if trace is not None`` — :func:`active` performs that
normalisation.  Traced and untraced runs are identical in everything but
the trace: instrumentation only *reads* values the engine already computed
(timing windows, counters), never adds reduction work, so ``content_hash``,
``rule_fires`` and the simulated timeline are unchanged by construction.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Callable, TextIO

from repro.records import Record

__all__ = [
    "SpanRecord",
    "EventRecord",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
    "active",
]


class SpanRecord(Record):
    """One completed span: ``[start, end]`` seconds on ``track``."""

    __slots__ = ("name", "track", "start", "end", "vt", "attrs")

    def __init__(
        self, name: str, track: str, start: float, end: float, vt: float | None = None,
        attrs: dict[str, Any] | None = None,
    ):
        self.name, self.track, self.start, self.end, self.vt = name, track, start, end, vt
        self.attrs: dict[str, Any] = {} if attrs is None else attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "end": self.end,
        }
        if self.vt is not None:
            payload["vt"] = self.vt
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


class EventRecord(Record):
    """One instantaneous event at ``time`` seconds on ``track``."""

    __slots__ = ("name", "track", "time", "vt", "attrs")

    def __init__(
        self, name: str, track: str, time: float, vt: float | None = None, attrs: dict[str, Any] | None = None
    ):
        self.name, self.track, self.time, self.vt = name, track, time, vt
        self.attrs: dict[str, Any] = {} if attrs is None else attrs

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "type": "event",
            "name": self.name,
            "track": self.track,
            "time": self.time,
        }
        if self.vt is not None:
            payload["vt"] = self.vt
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload


def record_from_json(payload: dict[str, Any]) -> SpanRecord | EventRecord:
    """Rebuild a record from its :meth:`to_json` form."""
    kind = payload.get("type")
    if kind == "span":
        return SpanRecord(
            name=payload["name"],
            track=payload["track"],
            start=float(payload["start"]),
            end=float(payload["end"]),
            vt=payload.get("vt"),
            attrs=dict(payload.get("attrs", {})),
        )
    if kind == "event":
        return EventRecord(
            name=payload["name"],
            track=payload["track"],
            time=float(payload["time"]),
            vt=payload.get("vt"),
            attrs=dict(payload.get("attrs", {})),
        )
    raise ValueError(f"not a trace record: {payload!r}")


class Tracer:
    """Base tracer: complete-span recording with optional virtual-time stamps.

    Instrumentation calls :meth:`span` / :meth:`event` with explicit
    ``perf_counter`` timestamps (no context managers in hot loops);
    subclasses implement :meth:`record_span` / :meth:`record_event`.
    ``vt_source`` is set by virtual-time runtimes to their simulator clock;
    when set, every record is additionally stamped with the virtual time at
    recording (reductions run at one virtual instant, so one stamp per
    record is exact).
    """

    #: ``False`` makes :func:`active` normalise the tracer away entirely.
    enabled: bool = True

    def __init__(self) -> None:
        self.vt_source: Callable[[], float] | None = None

    # ------------------------------------------------------------ recording
    def span(self, name: str, track: str, start: float, end: float, **attrs: Any) -> None:
        """Record one completed span (timestamps from ``perf_counter``)."""
        vt = self.vt_source() if self.vt_source is not None else None
        self.record_span(SpanRecord(name=name, track=track, start=start, end=end, vt=vt, attrs=attrs))

    def event(self, name: str, track: str, time: float | None = None, **attrs: Any) -> None:
        """Record one instantaneous event (``time`` defaults to now)."""
        vt = self.vt_source() if self.vt_source is not None else None
        moment = time if time is not None else perf_counter()
        self.record_event(EventRecord(name=name, track=track, time=moment, vt=vt, attrs=attrs))

    # ---------------------------------------------------------------- sinks
    def record_span(self, record: SpanRecord) -> None:
        raise NotImplementedError

    def record_event(self, record: EventRecord) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any underlying sink (idempotent)."""


class NullTracer(Tracer):
    """The default tracer: records nothing.

    :func:`active` maps it to ``None`` so instrumented code never even calls
    it — keeping the traced-off hot path to a single ``is not None`` check.
    """

    enabled = False

    def record_span(self, record: SpanRecord) -> None:  # pragma: no cover - normalised away
        pass

    def record_event(self, record: EventRecord) -> None:  # pragma: no cover - normalised away
        pass


class RecordingTracer(Tracer):
    """Collects every record in memory (thread-safe); used by the audit
    drivers, the Chrome exporter and the tests."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self._lock = threading.Lock()

    def record_span(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)

    def record_event(self, record: EventRecord) -> None:
        with self._lock:
            self.events.append(record)

    def records(self) -> list[SpanRecord | EventRecord]:
        """All records, spans first (recording order within each kind)."""
        with self._lock:
            return [*self.spans, *self.events]


class JsonlTracer(Tracer):
    """Streams records to a JSONL file, one record object per line.

    The file handle opens lazily on the first record (append mode), so a
    tracer that records nothing leaves no file behind.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = str(path)
        self._handle: TextIO | None = None
        self._lock = threading.Lock()

    def _write(self, payload: dict[str, Any]) -> None:
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json.dumps(payload, default=str) + "\n")

    def record_span(self, record: SpanRecord) -> None:
        self._write(record.to_json())

    def record_event(self, record: EventRecord) -> None:
        self._write(record.to_json())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def active(tracer: Tracer | None) -> Tracer | None:
    """Normalise a tracer for the hot seams: ``None`` unless it records.

    Every instrumented layer stores ``active(tracer)`` and guards with
    ``if trace is not None`` — a disabled tracer (or :class:`NullTracer`)
    therefore costs exactly one pointer comparison per would-be record.
    """
    if tracer is None or not tracer.enabled:
        return None
    return tracer
