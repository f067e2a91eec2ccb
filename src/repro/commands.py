"""The handlers of the ``ginflow`` subcommands, one per row of :data:`repro.cli.COMMANDS`.

Each handler takes the parsed arguments, returns the exit status and imports
what it runs in its own body: ``ginflow backends`` loads no runtime,
``ginflow run`` no analyzer, and a run without ``--trace`` neither the trace
exporter nor the summariser.
"""

from __future__ import annotations

import argparse
import json
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.runtime.config import BACKENDS, GinFlowConfig
from repro.services.faults import NO_FAILURES, FailureModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.findings import AnalysisReport
    from repro.obs import Observability
    from repro.workflow.dag import Workflow

__all__ = ["run", "sweep", "scenarios", "backends", "validate", "lint", "audit", "trace", "show_hocl"]


def _workflow_source(args: argparse.Namespace) -> Workflow:
    """The workflow named by ``args`` (exactly one of file path / --scenario)."""
    if args.workflow and args.scenario:
        raise ValueError("pass either a workflow file or --scenario, not both")
    if args.scenario:
        from repro.scenarios.registry import build_scenario

        return build_scenario(args.scenario)
    if args.workflow:
        from repro.workflow.json_format import workflow_from_json

        return workflow_from_json(args.workflow)
    raise ValueError("a workflow source is required: a JSON file path or --scenario NAME[:K=V,...]")


def _base_config(
    args: argparse.Namespace,
    failures: FailureModel = NO_FAILURES,
    obs: Observability | None = None,
) -> GinFlowConfig:
    return GinFlowConfig(
        mode=args.mode,
        executor=args.executor,
        broker=args.broker,
        cluster_preset=args.cluster,
        nodes=args.nodes,
        seed=args.seed,
        failures=failures,
        obs=obs,
    )


def _build_observability(args: argparse.Namespace) -> Observability | None:
    """The ``Observability`` bundle requested by ``--trace``, or ``None``."""
    if not args.trace:
        return None
    from repro.obs import JsonlTracer, MetricsRegistry, Observability, RecordingTracer

    if args.trace_format == "chrome":
        # the Chrome export needs the whole record set: record in memory,
        # write the file once the run finished
        return Observability(tracer=RecordingTracer(), metrics=MetricsRegistry())
    return Observability(tracer=JsonlTracer(args.trace), metrics=MetricsRegistry())


def _traced(args: argparse.Namespace, obs: Observability | None, call: Callable[[], Any]) -> Any:
    """``call()``, its recorded trace written only once it has returned: a
    command that fails leaves no trace file.  A JSONL stream is closed however
    the call ends."""
    try:
        result = call()
    finally:
        if obs is not None:
            obs.tracer.close()
    if obs is not None:
        from repro.obs.tracer import RecordingTracer

        if isinstance(obs.tracer, RecordingTracer):
            from repro.obs.export import write_trace

            write_trace(obs.tracer.records(), args.trace, args.trace_format)
    return result


def run(args: argparse.Namespace) -> int:
    from repro.runtime.ginflow import GinFlow

    workflow = _workflow_source(args)
    failures = FailureModel(probability=args.failure_probability, delay=args.failure_delay)
    obs = _build_observability(args)
    report = _traced(args, obs, lambda: GinFlow(_base_config(args, failures, obs)).run(workflow))
    if args.json:
        print(json.dumps(report.summary(), indent=2))
    else:
        print(report.format_summary())
    return 0 if report.succeeded and not report.timed_out else 1


def _parse_params(specs: Sequence[str]) -> dict[str, list[Any]]:
    from repro.scenarios.registry import coerce_value

    grid: dict[str, list[Any]] = {}
    for spec in specs:
        name, separator, values = spec.partition("=")
        name = name.strip()
        parts = [value.strip() for value in values.split(",")]
        if not separator or not name or not parts or any(part == "" for part in parts):
            raise ValueError(f"invalid --param {spec!r}; expected NAME=V1,V2,...")
        if name in grid:
            raise ValueError(f"duplicate --param {name!r}; give every value in one NAME=V1,V2,... spec")
        grid[name] = [coerce_value(part) for part in parts]
    return grid


def sweep(args: argparse.Namespace) -> int:
    from functools import partial

    from repro.experiments.grid import ParameterGrid
    from repro.runtime.ginflow import GinFlow

    grid_spec = _parse_params(args.param)
    if not grid_spec:
        raise ValueError("sweep needs at least one --param NAME=V1,V2,...")
    if args.workflow and args.scenario:
        raise ValueError("pass either a workflow file or --scenario, not both")
    if args.scenario:
        from repro.scenarios.registry import build_scenario

        # a factory, so swept parameters (size, edge_probability, ...) reach
        # the scenario generator as keyword overrides
        workflow: Any = partial(build_scenario, args.scenario)
    elif args.workflow:
        workflow = _workflow_source(args)
    elif "scenario" in grid_spec:
        workflow = None  # the swept 'scenario' axis provides the workflows
    else:
        raise ValueError(
            "a workflow source is required: a JSON file path, --scenario, "
            "or a swept --param scenario=NAME1,NAME2"
        )
    obs = _build_observability(args)
    report = _traced(args, obs, lambda: GinFlow(_base_config(args, obs=obs)).sweep(
        workflow, ParameterGrid(grid_spec), repeats=args.repeats, workers=args.workers, name="cli-sweep",
    ))
    if args.csv:
        report.to_csv(args.csv)
    if args.json_out:
        report.to_json(args.json_out)
    if args.json:
        print(report.to_json())
    else:
        print(report.format_table())
    return 0 if report.succeeded and not report.timed_out else 1


def scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import available_scenarios, get_scenario

    # an unknown name is refused before anything is printed, whatever the format
    listed = [get_scenario(name) for name in ((args.name,) if args.name else available_scenarios())]
    if args.names:
        for scenario in listed:
            print(scenario.name)
        return 0
    if args.json:
        payload = [
            {
                "name": scenario.name,
                "description": scenario.description,
                "structure": scenario.structure,
                "parameters": scenario.parameters(),
                "cost_profile": {stage: list(bounds) for stage, bounds in scenario.cost_profile.items()},
                "failure_profile": dict(scenario.failure_profile),
                "tags": list(scenario.tags),
            }
            for scenario in listed
        ]
        print(json.dumps(payload, indent=2))
        return 0
    if args.name:
        (scenario,) = listed
        print(f"{scenario.name} — {scenario.description}")
        print(f"  structure : {scenario.structure}")
        if scenario.tags:
            print(f"  tags      : {', '.join(scenario.tags)}")
        print("  parameters:")
        for parameter, default in scenario.parameters().items():
            print(f"    {parameter:<20} default={default!r}")
        if scenario.cost_profile:
            print("  cost profile (stage -> duration range, seconds):")
            for stage, (low, high) in scenario.cost_profile.items():
                print(f"    {stage:<20} {low:g} .. {high:g}")
        if scenario.failure_profile:
            profile = ", ".join(f"{key}={value}" for key, value in scenario.failure_profile.items())
            print(f"  failure profile: {profile}")
        print(f"  example   : ginflow run --scenario {scenario.name}:size=100,seed=1")
        return 0
    print(f"scenarios ({len(listed)}):")
    for scenario in listed:
        tasks = len(scenario.build())
        print(
            f"  {scenario.name:<16} {tasks:>4} tasks at size={scenario.parameters().get('size')}  "
            f"{scenario.description}"
        )
    print("run 'ginflow scenarios NAME' for parameters and cost profiles")
    return 0


def backends(args: argparse.Namespace) -> int:
    kinds = (args.kind,) if args.kind else tuple(BACKENDS)
    if args.json:
        payload = [
            {"kind": kind, "name": name, "description": description, "capabilities": flags}
            for kind in kinds
            for name, (_builder, description, flags) in BACKENDS[kind].items()
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for kind in kinds:
        print(f"{kind} ({len(BACKENDS[kind])}):")
        for name, (_builder, description, flags) in BACKENDS[kind].items():
            shown = ", ".join(
                f"{key}={value}" if not isinstance(value, bool) else (key if value else f"no-{key}")
                for key, value in flags.items()
            )
            suffix = f"  [{shown}]" if shown else ""
            print(f"  {name:<12} {description}{suffix}")
    return 0


def validate(args: argparse.Namespace) -> int:
    from repro.analysis.analyzer import analyze_workflow
    from repro.analysis.findings import Severity

    workflow = _workflow_source(args)
    # The checks are `ginflow lint`'s: every error-severity finding fails
    # validation, a rule-level one included; warnings and info do not.
    report = analyze_workflow(workflow)
    errors = [finding for finding in report if finding.severity is Severity.ERROR]
    if errors:
        raise ValueError("; ".join(finding.message for finding in errors))
    print(
        f"workflow {workflow.name!r}: {len(workflow)} tasks, "
        f"{len(workflow.dependencies())} dependencies, {len(workflow.adaptations)} adaptation(s) — OK"
    )
    return 0


def _findings_target(args: argparse.Namespace, verb: str) -> None:
    """``lint``/``audit`` take exactly one of: a JSON path, --scenario, --all-scenarios."""
    if sum(1 for given in (args.workflow, args.scenario, args.all_scenarios) if given) != 1:
        raise ValueError(
            f"pass exactly one {verb} target: a workflow JSON path, --scenario NAME[:K=V,...], "
            "or --all-scenarios"
        )


def _emit_findings(args: argparse.Namespace, report: AnalysisReport) -> int:
    from repro.analysis.findings import Severity

    fail_on = Severity.parse(args.fail_on)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(fail_on) + "\n")
    print(report.to_json(fail_on) if args.json else report.format_text())
    return 0 if report.ok(fail_on) else 1


def lint(args: argparse.Namespace) -> int:
    from repro.analysis.analyzer import analyze_all_scenarios, analyze_document, analyze_scenario

    _findings_target(args, "lint")
    if args.all_scenarios:
        report = analyze_all_scenarios()
    elif args.scenario:
        report = analyze_scenario(args.scenario)
    else:
        report = analyze_document(args.workflow)
    return _emit_findings(args, report)


def audit(args: argparse.Namespace) -> int:
    from repro.analysis.trace import audit_all_scenarios, audit_scenario, audit_workflow

    _findings_target(args, "audit")
    options = {"mode": args.mode, "nodes": args.nodes, "seed": args.seed, "repeats": args.repeats}
    if args.all_scenarios:
        report = audit_all_scenarios(**options)
    elif args.scenario:
        report = audit_scenario(args.scenario, **options)
    else:
        report = audit_workflow(_workflow_source(args), **options)
    return _emit_findings(args, report)


def trace(args: argparse.Namespace) -> int:
    from repro.obs.export import read_trace, write_trace

    if args.trace_command == "summarize":
        from repro.obs.summarize import format_summary, summarize

        summary = summarize(read_trace(args.trace_path), top=args.top)
        print(json.dumps(summary, indent=2) if args.json else format_summary(summary))
        return 0
    records = read_trace(args.src)
    fmt = args.to_format or ("jsonl" if args.dst.endswith(".jsonl") else "chrome")
    write_trace(records, args.dst, fmt)
    print(f"wrote {len(records)} records to {args.dst} ({fmt})")
    return 0


def show_hocl(args: argparse.Namespace) -> int:
    from repro.hoclflow.translator import encode_workflow
    from repro.workflow.json_format import workflow_from_json

    print(str(encode_workflow(workflow_from_json(args.workflow)).to_multiset()))
    return 0
