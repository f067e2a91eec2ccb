"""Dynamic checks over recorded observability traces.

The tracing subsystem (:mod:`repro.obs`) promises structural invariants the
rest of the toolchain relies on: spans are closed and well-nested (the
reduction-phase spans of an agent live inside that agent's stimulus span),
and the broker events account for exactly the messages the transport counted.

:class:`ObsScope` (kind ``"obs"``) carries one run's recorded spans and
events plus (optionally) the :class:`~repro.runtime.results.RunReport` the
same run assembled.  As everywhere in the dynamic analyzer, missing data
means *no finding*: a scope without a report skips the accounting checks, a
trace without broker events skips the broker check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.tracer import EventRecord, SpanRecord
from repro.runtime.results import RunReport

from .findings import Finding, Severity
from .registry import register_check

__all__ = ["ObsScope", "reduction_phase_totals"]

#: Reduction-phase span names and the timing phase each one records.
_PHASE_SPANS = {
    "reduction.match": "match",
    "reduction.rewrite": "rewrite",
    "reduction.patch": "patch",
}


@dataclass
class ObsScope:
    """The unit of observability analysis: one run's recorded trace.

    Attributes
    ----------
    label:
        Which run the trace comes from (``"scenario 'forkjoin' run 1/3"``).
    spans:
        Every recorded :class:`~repro.obs.tracer.SpanRecord`.
    events:
        Every recorded :class:`~repro.obs.tracer.EventRecord`.
    report:
        The :class:`~repro.runtime.results.RunReport` of the same run, when
        the caller has it; ``None`` disables the accounting checks.
    """

    label: str
    spans: tuple[SpanRecord, ...] = ()
    events: tuple[EventRecord, ...] = ()
    report: RunReport | None = field(default=None)


def reduction_phase_totals(spans: tuple[SpanRecord, ...]) -> dict[str, float]:
    """Per-phase reduction seconds recovered from the spans.

    ``match``/``rewrite``/``patch`` are the span durations; ``index`` is the
    sum of the ``index_seconds`` attributes stamped on rewrite/patch spans —
    what a traced run reports as ``RunReport.extra["reduction_timings"]``.
    """
    totals = {"match": 0.0, "rewrite": 0.0, "patch": 0.0, "index": 0.0}
    for span in spans:
        phase = _PHASE_SPANS.get(span.name)
        if phase is None:
            continue
        totals[phase] += span.end - span.start
        index_seconds = span.attrs.get("index_seconds")
        if isinstance(index_seconds, (int, float)):
            totals["index"] += float(index_seconds)
    return totals


@register_check(
    "obs-span-unclosed",
    kind="obs",
    severity=Severity.ERROR,
    description="every span must be closed and reduction spans must nest inside stimulus spans",
)
def check_span_unclosed(scope: ObsScope) -> Iterator[Finding]:
    """A span ending before it starts was never closed properly.

    Additionally, on any track that records agent stimulus spans, every
    reduction-phase span must be contained in one of them: the engine only
    runs *inside* a stimulus, so an orphan reduction span means a tracer was
    shared across runs or a span was recorded with the wrong track.
    """
    agent_windows: dict[str, list[tuple[float, float]]] = {}
    for span in scope.spans:
        if span.end < span.start:
            yield Finding(
                check="obs-span-unclosed",
                severity=Severity.ERROR,
                subject=span.name,
                message=f"span {span.name!r} on track {span.track!r} ends at "
                f"{span.end} before it starts at {span.start}",
                fix_hint="spans must record (start, end) from the same monotonic clock; "
                "close every span exactly once",
                location=scope.label,
            )
        if span.name.startswith("agent."):
            agent_windows.setdefault(span.track, []).append((span.start, span.end))
    for span in scope.spans:
        if span.name not in _PHASE_SPANS:
            continue
        windows = agent_windows.get(span.track)
        if not windows:
            continue  # e.g. the centralized track: no stimulus spans exist
        if not any(start <= span.start and span.end <= end for start, end in windows):
            yield Finding(
                check="obs-span-unclosed",
                severity=Severity.ERROR,
                subject=span.name,
                message=f"reduction span {span.name!r} on track {span.track!r} "
                f"([{span.start}, {span.end}]) is not nested inside any agent "
                "stimulus span of that track",
                fix_hint="reductions only run inside a stimulus; do not share one "
                "tracer across runs or re-track engine spans",
                location=scope.label,
            )


@register_check(
    "obs-broker-accounting",
    kind="obs",
    severity=Severity.ERROR,
    description="broker publish/deliver events must match the transport's counters",
)
def check_broker_accounting(scope: ObsScope) -> Iterator[Finding]:
    """The trace's broker events are redundant with the report's counters.

    One ``broker.publish`` event per published message; the ``count``
    attributes of the ``broker.deliver`` events sum to the delivered total
    (a delivery event is only recorded when at least one subscriber got the
    message).  Disagreement means events were dropped or double-recorded.
    Scopes without a report or without broker events are skipped.
    """
    if scope.report is None:
        return
    publishes = [event for event in scope.events if event.name == "broker.publish"]
    delivers = [event for event in scope.events if event.name == "broker.deliver"]
    if not publishes and not delivers:
        return
    published = len(publishes)
    if published != scope.report.messages_published:
        yield Finding(
            check="obs-broker-accounting",
            severity=Severity.ERROR,
            subject="broker",
            message=f"trace records {published} broker.publish event(s) but the run "
            f"counted {scope.report.messages_published} published message(s)",
            fix_hint="record exactly one broker.publish event per published message",
            location=scope.label,
        )
    delivered = sum(
        int(event.attrs.get("count", 0))
        for event in delivers
        if isinstance(event.attrs.get("count", 0), (int, float))
    )
    if delivered != scope.report.messages_delivered:
        yield Finding(
            check="obs-broker-accounting",
            severity=Severity.ERROR,
            subject="broker",
            message=f"broker.deliver event counts sum to {delivered} but the run "
            f"counted {scope.report.messages_delivered} delivered message(s)",
            fix_hint="stamp every broker.deliver event with the number of "
            "subscribers actually handed the message",
            location=scope.label,
        )
