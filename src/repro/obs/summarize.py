"""Trace rollups: per-agent, per-rule and per-phase summaries.

This is what ``ginflow trace summarize`` prints.  The reduction-phase
totals sum the match/rewrite/patch span durations plus the ``index_seconds``
attribute the rewrite/patch spans carry — the numbers a traced run reports
as ``RunReport.extra["reduction_timings"]``.  Self-time subtracts the durations of a span's
direct children (same-track timestamp containment) — the nesting the Chrome
export renders.
"""

from __future__ import annotations

from typing import Any

from .tracer import EventRecord, SpanRecord

__all__ = ["summarize", "format_summary"]

#: span-name → timing phase of the reduction engine's accounting
_PHASE_SPANS = {
    "reduction.match": "match",
    "reduction.rewrite": "rewrite",
    "reduction.patch": "patch",
}
_PHASES = ("match", "rewrite", "patch", "index")


def _self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Self-time (duration minus direct children) per span, by index.

    Spans are grouped per track; within a track, containment by timestamps
    defines the nesting (outer spans start no later and end no earlier).
    """
    self_times = {index: span.end - span.start for index, span in enumerate(spans)}
    by_track: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_track.setdefault(span.track, []).append(index)
    for indices in by_track.values():
        ordered = sorted(indices, key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for index in ordered:
            span = spans[index]
            while stack and spans[stack[-1]].end <= span.start:
                stack.pop()
            if stack and span.end <= spans[stack[-1]].end:
                self_times[stack[-1]] -= span.end - span.start
            stack.append(index)
    return self_times


def summarize(records: list[SpanRecord | EventRecord], top: int = 10) -> dict[str, Any]:
    """Roll a record list up into the summary dictionary."""
    spans = [record for record in records if isinstance(record, SpanRecord)]
    events = [record for record in records if isinstance(record, EventRecord)]
    self_times = _self_times(spans)

    phases = {phase: 0.0 for phase in _PHASES}
    per_track: dict[str, dict[str, Any]] = {}
    per_rule: dict[str, dict[str, Any]] = {}
    for index, span in enumerate(spans):
        phase = _PHASE_SPANS.get(span.name)
        if phase is not None:
            phases[phase] += span.end - span.start
            index_seconds = span.attrs.get("index_seconds")
            if index_seconds is not None:
                phases["index"] += float(index_seconds)
        row = per_track.setdefault(span.track, {"spans": 0, "events": 0, "busy_seconds": 0.0})
        row["spans"] += 1
        row["busy_seconds"] += self_times[index]
        rule = span.attrs.get("rule")
        if rule is not None:
            rule_row = per_rule.setdefault(str(rule), {"fires": 0, "seconds": 0.0})
            rule_row["fires"] += 1
            rule_row["seconds"] += span.end - span.start
    for event in events:
        row = per_track.setdefault(event.track, {"spans": 0, "events": 0, "busy_seconds": 0.0})
        row["events"] += 1

    ranked = sorted(range(len(spans)), key=lambda i: -self_times[i])[: max(0, top)]
    top_spans = [
        {
            "name": spans[i].name,
            "track": spans[i].track,
            "self_seconds": self_times[i],
            "duration": spans[i].end - spans[i].start,
        }
        for i in ranked
    ]

    window: dict[str, float] = {}
    if spans or events:
        starts = [span.start for span in spans] + [event.time for event in events]
        ends = [span.end for span in spans] + [event.time for event in events]
        window = {"start": min(starts), "end": max(ends)}
    return {
        "spans": len(spans),
        "events": len(events),
        "tracks": len(per_track),
        "window": window,
        "phases": phases,
        "per_track": {track: per_track[track] for track in sorted(per_track)},
        "per_rule": {rule: per_rule[rule] for rule in sorted(per_rule)},
        "top_spans": top_spans,
    }


def format_summary(summary: dict[str, Any]) -> str:
    """Render :func:`summarize` output as the stable text report."""
    lines = [
        f"trace summary: {summary['spans']} spans, {summary['events']} events, "
        f"{summary['tracks']} tracks"
    ]
    window = summary.get("window") or {}
    if window:
        lines.append(f"window: {window['end'] - window['start']:.6f}s")
    lines.append("")
    lines.append("reduction phase seconds:")
    for phase in _PHASES:
        lines.append(f"  {phase:<8} {summary['phases'][phase]:.6f}")
    per_track = summary["per_track"]
    if "gc" in per_track:  # the cyclic collector's own track (Observability.watching_gc)
        lines.append(f"gc: {per_track['gc']['spans']} collections, {per_track['gc']['busy_seconds']:.6f}s paused")
    if per_track:
        lines.append("")
        lines.append("per-agent rollup:")
        lines.append(f"  {'track':<24} {'spans':>6} {'events':>7} {'busy_s':>10}")
        for track, row in per_track.items():
            lines.append(
                f"  {track:<24} {row['spans']:>6} {row['events']:>7} {row['busy_seconds']:>10.6f}"
            )
    per_rule = summary["per_rule"]
    if per_rule:
        lines.append("")
        lines.append("per-rule rollup:")
        lines.append(f"  {'rule':<24} {'fires':>6} {'seconds':>10}")
        for rule, row in per_rule.items():
            lines.append(f"  {rule:<24} {row['fires']:>6} {row['seconds']:>10.6f}")
    top_spans = summary["top_spans"]
    if top_spans:
        lines.append("")
        lines.append(f"top {len(top_spans)} spans by self-time:")
        for rank, row in enumerate(top_spans, start=1):
            lines.append(
                f"  {rank}. {row['name']}  track={row['track']}  "
                f"self={row['self_seconds']:.6f}s  dur={row['duration']:.6f}s"
            )
    return "\n".join(lines)
