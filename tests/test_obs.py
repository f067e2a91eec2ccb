"""Tests for the observability subsystem (repro.obs).

The tentpole contract under test: tracing is *zero-overhead when off* (a
``None`` tracer, one pointer check per seam) and *identity-preserving when
on* — a traced run produces the same results, fire counters and (simulated)
timeline as an untraced one, because instrumentation only reads values the
engine already computed.  On top of that: the record model round-trips
through both file formats, the Chrome export is Perfetto-loadable, a traced
run records its reduction phases as spans (an untraced run reads no clock for
them), and the CLI surface (``--trace``, ``ginflow trace summarize|convert``)
works end to end.
"""

import json
import logging
import math

import pytest

from repro.cli import main
from repro.obs import (
    EventRecord,
    JsonlTracer,
    MetricsRegistry,
    NullTracer,
    Observability,
    RecordingTracer,
    SpanRecord,
    active,
    record_from_json,
)
from repro.obs.export import (
    from_chrome,
    read_jsonl,
    read_trace,
    to_chrome,
    write_chrome,
    write_jsonl,
    write_trace,
)
from repro.obs.logs import configure_logging, get_logger
from repro.obs.summarize import format_summary, summarize
from repro.runtime import GinFlow, GinFlowConfig
from repro.workflow import diamond_workflow, workflow_to_json

MODES = ("simulated", "asyncio", "centralized")


def run_diamond(mode, obs=None, seed=3):
    config = GinFlowConfig(mode=mode, nodes=4, seed=seed, obs=obs)
    return GinFlow(config).run(diamond_workflow(2, 2, duration=0.05), timeout=60.0)


def fingerprint(report):
    """Everything a tracer must not change, in one comparable value."""
    return {
        "succeeded": report.succeeded,
        "timed_out": report.timed_out,
        "rule_fires": dict(report.rule_fires),
        "reactions": report.reduction_reactions,
        "states": {name: outcome.state for name, outcome in report.tasks.items()},
        "results": {name: outcome.result for name, outcome in report.tasks.items()},
    }


# ------------------------------------------------------------------- tracers
class TestTracerModel:
    def test_span_record_roundtrip(self):
        span = SpanRecord(name="s", track="t", start=1.0, end=2.5, vt=7.0, attrs={"k": 1})
        back = record_from_json(span.to_json())
        assert back == span
        assert back.duration == 1.5

    def test_event_record_roundtrip(self):
        event = EventRecord(name="e", track="t", time=3.0, attrs={"count": 2})
        assert record_from_json(event.to_json()) == event

    def test_record_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            record_from_json({"name": "x"})

    def test_active_normalises_off_tracers_to_none(self):
        assert active(None) is None
        assert active(NullTracer()) is None
        tracer = RecordingTracer()
        assert active(tracer) is tracer

    def test_recording_tracer_collects_spans_and_events(self):
        tracer = RecordingTracer()
        tracer.span("work", "a", 0.0, 1.0, rule="r")
        tracer.event("ping", "a", time=0.5, count=3)
        (span,) = tracer.spans
        (event,) = tracer.events
        assert span.name == "work" and span.attrs == {"rule": "r"} and span.vt is None
        assert event.time == 0.5 and event.attrs == {"count": 3}
        assert tracer.records() == [span, event]

    def test_vt_source_stamps_every_record(self):
        tracer = RecordingTracer()
        tracer.vt_source = lambda: 42.0
        tracer.span("work", "a", 0.0, 1.0)
        tracer.event("ping", "a", time=0.5)
        assert tracer.spans[0].vt == 42.0
        assert tracer.events[0].vt == 42.0

    def test_event_defaults_to_now(self):
        tracer = RecordingTracer()
        tracer.event("ping", "a")
        assert tracer.events[0].time > 0.0

    def test_jsonl_tracer_streams_and_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(str(path))
        tracer.span("work", "a", 0.0, 1.0)
        tracer.event("ping", "b", time=0.5)
        tracer.close()
        tracer.close()  # idempotent
        records = read_jsonl(str(path))
        assert [type(r).__name__ for r in records] == ["SpanRecord", "EventRecord"]


# ------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.0)
        registry.gauge("g").set(7)
        for value in (1.0, 3.0, 2.0):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3.0}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"] == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }
        json.dumps(snap)  # JSON-safe by contract

    def test_empty_histogram_summary(self):
        summary = MetricsRegistry().histogram("h").summary()
        assert summary == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


# ------------------------------------------------------------------- exports
def sample_records():
    return [
        SpanRecord(name="agent.boot", track="a", start=0.0, end=1.0, vt=0.0),
        SpanRecord(
            name="reduction.match", track="a", start=0.1, end=0.4,
            vt=0.0, attrs={"rule": "gw_setup", "depth": 0},
        ),
        SpanRecord(
            name="reduction.patch", track="a", start=0.4, end=0.6,
            vt=0.0, attrs={"rule": "gw_setup", "index_seconds": 0.05},
        ),
        EventRecord(name="broker.publish", track="broker", time=0.5, attrs={"topic": "t"}),
    ]


class TestExport:
    def test_jsonl_roundtrip_is_exact(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(sample_records(), path)
        assert read_jsonl(path) == sample_records()

    def test_chrome_structure(self):
        payload = to_chrome(sample_records())
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        # one thread per track, 1-based tids by first appearance
        assert [(m["tid"], m["args"]["name"]) for m in meta] == [(1, "a"), (2, "broker")]
        assert all(e["pid"] == 0 for e in events)
        assert len(spans) == 3 and len(instants) == 1
        boot = next(e for e in spans if e["name"] == "agent.boot")
        assert boot["ts"] == 0.0 and boot["dur"] == pytest.approx(1e6)
        assert instants[0]["s"] == "t"

    def test_chrome_roundtrip_preserves_records(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome(sample_records(), path)
        payload = json.loads(open(path).read())
        back = from_chrome(payload)
        for original, restored in zip(sample_records(), back):
            assert type(original) is type(restored)
            assert original.name == restored.name and original.track == restored.track
            assert restored.vt == original.vt
            if isinstance(original, SpanRecord):
                assert math.isclose(original.start, restored.start, abs_tol=1e-9)
                assert math.isclose(original.end, restored.end, abs_tol=1e-9)
                assert {k: v for k, v in original.attrs.items()} == restored.attrs
            else:
                assert math.isclose(original.time, restored.time, abs_tol=1e-9)

    def test_read_trace_autodetects_both_formats(self, tmp_path):
        jsonl = str(tmp_path / "t.jsonl")
        chrome = str(tmp_path / "t.json")
        write_trace(sample_records(), jsonl, fmt="jsonl")
        write_trace(sample_records(), chrome, fmt="chrome")
        assert read_trace(jsonl) == sample_records()
        assert [r.name for r in read_trace(chrome)] == [r.name for r in sample_records()]

    def test_write_trace_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace([], str(tmp_path / "t"), fmt="protobuf")


# ----------------------------------------------------------------- summarize
class TestSummarize:
    def test_rollup_numbers(self):
        summary = summarize(sample_records())
        assert summary["spans"] == 3 and summary["events"] == 1 and summary["tracks"] == 2
        assert summary["phases"] == pytest.approx(
            {"match": 0.3, "patch": 0.2, "index": 0.05}
        )
        # boot's self-time excludes its two nested reduction spans
        track = summary["per_track"]["a"]
        assert track["spans"] == 3
        assert track["busy_seconds"] == pytest.approx(1.0)
        assert summary["per_rule"]["gw_setup"] == pytest.approx({"fires": 2, "seconds": 0.5})
        assert summary["top_spans"][0]["name"] == "agent.boot"
        assert summary["top_spans"][0]["self_seconds"] == pytest.approx(0.5)

    def test_format_summary_text(self):
        text = format_summary(summarize(sample_records()))
        assert "trace summary: 3 spans, 1 events, 2 tracks" in text
        assert "window: 1.000000s" in text
        assert "reduction phase seconds:" in text
        assert "match    0.300000" in text
        assert "per-agent rollup:" in text
        assert "per-rule rollup:" in text
        assert "gw_setup" in text
        assert "top 3 spans by self-time:" in text

    def test_empty_trace_summarizes(self):
        summary = summarize([])
        assert summary["spans"] == 0 and summary["window"] == {}
        assert "0 spans" in format_summary(summary)


# ---------------------------------------------------------- trace identity
class TestTraceIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_traced_run_identical_to_untraced(self, mode):
        plain = run_diamond(mode)
        obs = Observability(tracer=RecordingTracer(), metrics=MetricsRegistry())
        traced = run_diamond(mode, obs=obs)
        assert plain.succeeded and traced.succeeded
        assert fingerprint(traced) == fingerprint(plain)
        if mode == "simulated":
            assert traced.makespan == plain.makespan
            assert [
                (event.time, event.task, event.event) for event in traced.timeline
            ] == [(event.time, event.task, event.event) for event in plain.timeline]
        # and the trace actually recorded the reduction work
        names = {span.name for span in obs.tracer.spans}
        assert "reduction.match" in names

    def test_null_tracer_run_identical_to_none(self):
        plain = run_diamond("simulated")
        nulled = run_diamond("simulated", obs=Observability(tracer=NullTracer()))
        assert fingerprint(nulled) == fingerprint(plain)
        assert nulled.makespan == plain.makespan

    def test_simulated_records_are_virtual_time_stamped(self):
        obs = Observability(tracer=RecordingTracer())
        report = run_diamond("simulated", obs=obs)
        assert report.succeeded
        stamped = [span for span in obs.tracer.spans if span.vt is not None]
        assert stamped, "simulated runs must stamp spans with virtual time"
        assert max(span.vt for span in stamped) <= report.makespan + 1e-9

    def test_metrics_count_what_the_report_counts(self):
        obs = Observability(tracer=RecordingTracer(), metrics=MetricsRegistry())
        report = run_diamond("simulated", obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["broker.published"] == report.messages_published
        assert counters["broker.delivered"] == report.messages_delivered
        assert counters["enactment.invocations"] == len(report.tasks)

    @pytest.mark.parametrize("mode", MODES)
    def test_reduction_phases_are_spans_of_every_runtime(self, mode):
        tracer = RecordingTracer()
        assert run_diamond(mode, obs=Observability(tracer=tracer)).succeeded
        phases = summarize(tracer.records())["phases"]
        assert set(phases) == {"match", "patch", "index"} and phases["match"] > 0.0


# ------------------------------------------------------------ reconciliation
class TestReconciliation:
    def test_an_untraced_reduce_reads_no_clock(self, monkeypatch):
        from repro.agents import AgentCore
        from repro.hocl import engine as engine_module
        from repro.hoclflow import encode_workflow

        def refuse():
            raise AssertionError("perf_counter read on an untraced reduce")

        core = AgentCore(encode_workflow(diamond_workflow(2, 2)).tasks["split"])
        monkeypatch.setattr(engine_module, "perf_counter", refuse)
        assert core.boot() and core.invocation_succeeded("done")
        assert sum(core.rule_fires.values()) == 4

    def test_reduction_spans_nest_inside_stimulus_spans(self):
        obs = Observability(tracer=RecordingTracer())
        assert run_diamond("simulated", obs=obs).succeeded
        windows = {}
        for span in obs.tracer.spans:
            if span.name.startswith("agent."):
                windows.setdefault(span.track, []).append((span.start, span.end))
        reductions = [s for s in obs.tracer.spans if s.name.startswith("reduction.")]
        assert reductions
        for span in reductions:
            assert any(
                start <= span.start and span.end <= end
                for start, end in windows.get(span.track, [])
            ), f"orphan {span.name} on {span.track}"


# ----------------------------------------------------------------- logging
class TestLogging:
    def test_library_logger_namespace_and_null_handler(self):
        assert get_logger("agents.t1").name == "repro.agents.t1"
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)

    def test_configure_logging_is_idempotent(self):
        configure_logging("DEBUG")
        configure_logging("INFO")
        root = logging.getLogger("repro")
        stream_handlers = [
            h for h in root.handlers
            if isinstance(h, logging.StreamHandler) and not isinstance(h, logging.NullHandler)
        ]
        assert len(stream_handlers) == 1
        assert root.level == logging.INFO


# --------------------------------------------------------------------- CLI
@pytest.fixture()
def workflow_file(tmp_path):
    path = tmp_path / "wf.json"
    workflow_to_json(diamond_workflow(2, 2, duration=0.05), path)
    return str(path)


class TestObsCLI:
    def test_run_with_jsonl_trace(self, workflow_file, tmp_path, capsys):
        trace = tmp_path / "run.trace.jsonl"
        assert main(["run", workflow_file, "--trace", str(trace)]) == 0
        records = read_trace(str(trace))
        names = {record.name for record in records}
        assert "reduction.match" in names and "broker.publish" in names

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scenario", "forkjoin:size=10", "--nodes", "0"],
            ["sweep", "--scenario", "forkjoin", "--param", "size=10,20", "--workers", "2"],
        ],
        ids=["run", "sweep"],
    )
    def test_a_failed_command_leaves_no_chrome_trace(self, argv, tmp_path, capsys):
        """The trace is written once the run or sweep has returned, never for one that did not start."""
        trace = tmp_path / "t.json"
        assert main([*argv, "--trace", str(trace), "--trace-format", "chrome"]) == 2
        assert capsys.readouterr().err.startswith("error: ") and not trace.exists()

    def test_run_with_chrome_trace(self, workflow_file, tmp_path):
        trace = tmp_path / "run.json"
        assert main(
            ["run", workflow_file, "--trace", str(trace), "--trace-format", "chrome"]
        ) == 0
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        tracks = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # one named thread per agent (diamond 2x2: split/s*/merge) + broker
        assert "broker" in tracks and any(track.startswith("s") for track in tracks)
        assert any(e["ph"] == "X" for e in events)

    def test_trace_summarize_text(self, workflow_file, tmp_path, capsys):
        trace = tmp_path / "run.trace.jsonl"
        assert main(["run", workflow_file, "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace summary:" in out and "reduction phase seconds:" in out

    def test_trace_summarize_json_and_convert(self, workflow_file, tmp_path, capsys):
        jsonl = tmp_path / "run.trace.jsonl"
        chrome = tmp_path / "run.json"
        assert main(["run", workflow_file, "--trace", str(jsonl)]) == 0
        assert main(["trace", "convert", str(jsonl), str(chrome), "--to", "chrome"]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(jsonl), "--json"]) == 0
        summary_jsonl = json.loads(capsys.readouterr().out)
        assert main(["trace", "summarize", str(chrome), "--json"]) == 0
        summary_chrome = json.loads(capsys.readouterr().out)
        for phase, seconds in summary_jsonl["phases"].items():
            assert math.isclose(
                seconds, summary_chrome["phases"][phase], rel_tol=1e-6, abs_tol=1e-9
            )

    def test_trace_summarize_missing_file(self, capsys):
        assert main(["trace", "summarize", "nope.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_with_trace_records_cells(self, tmp_path, capsys):
        trace = tmp_path / "sweep.trace.jsonl"
        assert main(
            [
                "sweep", "--scenario", "forkjoin", "--param", "size=10,12",
                "--trace", str(trace),
            ]
        ) == 0
        cells = [r for r in read_trace(str(trace)) if r.name == "sweep.cell"]
        assert len(cells) == 2
        assert all(cell.track == "sweep" for cell in cells)
        assert {cell.attrs.get("size") for cell in cells} == {10, 12}

    def test_log_level_flag(self, workflow_file):
        assert main(["--log-level", "WARNING", "run", workflow_file]) == 0
