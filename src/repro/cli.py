"""Command line interface (the paper's Section IV-D client interface).

Usage::

    ginflow run workflow.json --mode simulated --executor mesos --broker kafka --nodes 10
    ginflow run --scenario cybershake:size=500,seed=3 --mode asyncio
    ginflow run --scenario montage:size=100 --trace run.trace.jsonl
    ginflow run --scenario montage:size=100 --trace out.json --trace-format chrome
    ginflow trace summarize run.trace.jsonl --top 10
    ginflow trace convert run.trace.jsonl out.json --to chrome
    ginflow sweep workflow.json --param nodes=5,10,15 --param broker=activemq,kafka --repeats 3
    ginflow sweep --scenario epigenomics --param size=50,200 --repeats 3
    ginflow scenarios
    ginflow scenarios cybershake
    ginflow backends
    ginflow validate workflow.json
    ginflow lint workflow.json
    ginflow lint --scenario epigenomics --json
    ginflow lint --all-scenarios --fail-on error
    ginflow audit --scenario forkjoin:size=20 --repeats 3
    ginflow audit --all-scenarios --mode asyncio
    ginflow show-hocl workflow.json

or, without installing the console script::

    python -m repro.cli run workflow.json

Backend choices (``--mode`` / ``--executor`` / ``--broker`` / ``--cluster``)
and ``ginflow backends`` read the one table of backends,
:data:`repro.runtime.config.BACKENDS`.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import sys
from typing import Any, Callable, Sequence

from repro.hoclflow import encode_workflow
from repro.obs import JsonlTracer, MetricsRegistry, Observability, RecordingTracer
from repro.obs.export import read_trace, write_trace
from repro.obs.logs import configure_logging
from repro.obs.summarize import format_summary, summarize
from repro.runtime import GinFlow, GinFlowConfig
from repro.runtime.config import BACKENDS
from repro.scenarios import available_scenarios, build_scenario, get_scenario
from repro.services import FailureModel
from repro.workflow import workflow_from_json

__all__ = ["main", "build_parser"]


def _add_workflow_source(parser: argparse.ArgumentParser) -> None:
    """The two workflow sources of ``run``/``sweep``: a JSON file or a scenario spec."""
    parser.add_argument("workflow", nargs="?", help="path to the JSON workflow definition")
    parser.add_argument(
        "--scenario",
        metavar="NAME[:K=V,...]",
        help="generate the workflow from a scenario of the catalog instead of a JSON file, "
        "e.g. --scenario cybershake:size=500,seed=3 (see 'ginflow scenarios')",
    )


def _resolve_workflow_source(args: argparse.Namespace):
    """The workflow named by ``args`` (exactly one of file path / --scenario)."""
    if args.workflow and args.scenario:
        raise ValueError("pass either a workflow file or --scenario, not both")
    if args.scenario:
        return build_scenario(args.scenario)
    if args.workflow:
        return workflow_from_json(args.workflow)
    raise ValueError("a workflow source is required: a JSON file path or --scenario NAME[:K=V,...]")


def _add_findings_arguments(parser: argparse.ArgumentParser, all_scenarios_help: str) -> None:
    """Target and reporting flags shared by ``lint`` and ``audit``."""
    _add_workflow_source(parser)
    parser.add_argument("--all-scenarios", action="store_true", help=all_scenarios_help)
    parser.add_argument(
        "--fail-on",
        choices=["warning", "error"],
        default="error",
        help="exit non-zero when a finding of at least this severity exists (default: error)",
    )
    parser.add_argument("--json", action="store_true", help="print the findings as JSON")
    parser.add_argument("--json-out", metavar="PATH", help="also write the JSON findings report to PATH")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Configuration flags shared by ``run`` and ``sweep`` (choices from the backend table)."""
    parser.add_argument("--mode", default="simulated", choices=tuple(BACKENDS["runtime"]))
    parser.add_argument("--executor", default="ssh", choices=tuple(BACKENDS["executor"]))
    parser.add_argument("--broker", default="activemq", choices=tuple(BACKENDS["broker"]))
    parser.add_argument("--cluster", default="grid5000", choices=tuple(BACKENDS["cluster"]),
                        help="cluster preset (simulated mode)")
    parser.add_argument("--nodes", type=int, default=25, help="number of cluster nodes (simulated mode)")
    parser.add_argument("--seed", type=int, default=1, help="root random seed")


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Tracing flags shared by ``run`` and ``sweep``."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a trace of the run to PATH (spans and events from every layer)",
    )
    parser.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace file format: streaming JSONL (default) or the Chrome "
        "trace-event format (open in Perfetto; one track per agent)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``ginflow`` command."""
    parser = argparse.ArgumentParser(
        prog="ginflow",
        description="GinFlow: decentralised adaptive workflow execution manager (reproduction)",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="enable library logging to stderr at this level (debug, info, warning, ...)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="execute a JSON workflow or a scenario of the catalog")
    _add_workflow_source(run_parser)
    _add_config_arguments(run_parser)
    _add_trace_arguments(run_parser)
    run_parser.add_argument("--failure-probability", type=float, default=0.0, help="failure injection probability p")
    run_parser.add_argument("--failure-delay", type=float, default=0.0, help="failure injection delay T (seconds)")
    run_parser.add_argument("--json", action="store_true", help="print the report summary as JSON")

    sweep_parser = subparsers.add_parser("sweep", help="execute a workflow over a parameter grid")
    _add_workflow_source(sweep_parser)
    _add_config_arguments(sweep_parser)
    _add_trace_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="sweep parameter (repeatable), e.g. --param nodes=5,10 --param broker=activemq,kafka",
    )
    sweep_parser.add_argument("--repeats", type=int, default=1, help="runs per grid cell")
    sweep_parser.add_argument("--workers", type=int, default=None, help="parallel workers (processes)")
    sweep_parser.add_argument("--csv", metavar="PATH", help="write the per-run rows as CSV")
    sweep_parser.add_argument("--json-out", metavar="PATH", help="write rows + aggregates as JSON")
    sweep_parser.add_argument("--json", action="store_true", help="print the sweep report as JSON")

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list the workflow scenarios of the catalog (or describe one)"
    )
    scenarios_parser.add_argument("name", nargs="?", help="describe one scenario in detail")
    scenarios_parser.add_argument("--json", action="store_true", help="print the listing as JSON")
    scenarios_parser.add_argument(
        "--names", action="store_true", help="print the bare scenario names, one per line"
    )

    backends_parser = subparsers.add_parser("backends", help="list the built-in backends")
    backends_parser.add_argument("--kind", choices=tuple(BACKENDS), help="restrict to one backend kind")
    backends_parser.add_argument("--json", action="store_true", help="print the listing as JSON")

    validate_parser = subparsers.add_parser(
        "validate", help="validate a workflow definition and its JSON round-trip"
    )
    _add_workflow_source(validate_parser)

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically analyze workflows, scenarios and their HOCL rules",
        description="Run the repro.analysis checks (rule, workflow and scenario "
        "families) without executing anything; see the README's "
        "'Static analysis' section for the check catalog.",
    )
    _add_findings_arguments(lint_parser, "lint every scenario of the catalog at its default parameters")

    audit_parser = subparsers.add_parser(
        "audit",
        help="dynamically analyze runs: rule coverage, enactment invariants, adaptation plans",
        description="Enact the workflow (or scenario) and run the repro.analysis "
        "dynamic checks (trace, run and plan families) on the artifacts the "
        "run produces; see the README's 'Dynamic analysis' section for the "
        "check catalog.",
    )
    _add_findings_arguments(audit_parser, "audit every scenario of the catalog at a small size (size=20)")
    audit_parser.add_argument("--mode", default="simulated", choices=tuple(BACKENDS["runtime"]))
    audit_parser.add_argument("--nodes", type=int, default=5, help="number of cluster nodes")
    audit_parser.add_argument("--seed", type=int, default=1, help="root random seed")
    audit_parser.add_argument(
        "--repeats", type=int, default=1,
        help="runs per workflow (seeds seed..seed+repeats-1); rule coverage merges all runs",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect or convert a recorded trace file",
        description="Work with traces recorded by 'ginflow run|sweep --trace': "
        "'summarize' prints per-phase, per-agent and per-rule rollups plus the "
        "top spans by self-time; 'convert' translates between the streaming "
        "JSONL format and the Chrome trace-event format (loadable in Perfetto).",
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)
    summarize_parser = trace_subparsers.add_parser("summarize", help="print rollups of a trace file")
    summarize_parser.add_argument("trace_path", metavar="PATH", help="trace file (JSONL or Chrome format)")
    summarize_parser.add_argument("--top", type=int, default=10, help="number of top spans to show")
    summarize_parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    convert_parser = trace_subparsers.add_parser("convert", help="convert a trace between formats")
    convert_parser.add_argument("src", metavar="SRC", help="input trace file (format auto-detected)")
    convert_parser.add_argument("dst", metavar="DST", help="output trace file")
    convert_parser.add_argument(
        "--to",
        dest="to_format",
        choices=["jsonl", "chrome"],
        help="output format (default: chrome unless DST ends in .jsonl)",
    )

    hocl_parser = subparsers.add_parser("show-hocl", help="print the HOCL encoding of a workflow")
    hocl_parser.add_argument("workflow", help="path to the JSON workflow definition")

    return parser


def _base_config(
    args: argparse.Namespace,
    failures: FailureModel | None = None,
    obs: Observability | None = None,
) -> GinFlowConfig:
    return GinFlowConfig(
        mode=args.mode,
        executor=args.executor,
        broker=args.broker,
        cluster_preset=args.cluster,
        nodes=args.nodes,
        seed=args.seed,
        failures=failures if failures is not None else FailureModel(),
        obs=obs,
    )


def _build_observability(args: argparse.Namespace) -> Observability | None:
    """The ``Observability`` bundle requested by ``--trace``, or ``None``."""
    if not args.trace:
        return None
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
    if obs is not None and isinstance(obs.tracer, RecordingTracer):
        write_trace(obs.tracer.records(), args.trace, args.trace_format)
    return result


def _command_run(args: argparse.Namespace) -> int:
    workflow = _resolve_workflow_source(args)
    failures = FailureModel(probability=args.failure_probability, delay=args.failure_delay)
    obs = _build_observability(args)
    report = _traced(args, obs, lambda: GinFlow(_base_config(args, failures, obs)).run(workflow))
    if args.json:
        print(json.dumps(report.summary(), indent=2))
    else:
        print(report.format_summary())
    return 0 if report.succeeded and not report.timed_out else 1


def _parse_param_value(text: str) -> Any:
    """Best-effort scalar parsing of one swept value (int, float, bool, str)."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text.strip()


def _parse_params(specs: Sequence[str]) -> dict[str, list[Any]]:
    grid: dict[str, list[Any]] = {}
    for spec in specs:
        name, separator, values = spec.partition("=")
        name = name.strip()
        parts = [value.strip() for value in values.split(",")]
        if not separator or not name or not parts or any(part == "" for part in parts):
            raise ValueError(f"invalid --param {spec!r}; expected NAME=V1,V2,...")
        if name in grid:
            raise ValueError(f"duplicate --param {name!r}; give every value in one NAME=V1,V2,... spec")
        grid[name] = [_parse_param_value(part) for part in parts]
    return grid


def _command_sweep(args: argparse.Namespace) -> int:
    from functools import partial

    from repro.experiments import ParameterGrid

    grid_spec = _parse_params(args.param)
    if not grid_spec:
        raise ValueError("sweep needs at least one --param NAME=V1,V2,...")
    if args.workflow and args.scenario:
        raise ValueError("pass either a workflow file or --scenario, not both")
    if args.scenario:
        # a factory, so swept parameters (size, edge_probability, ...) reach
        # the scenario generator as keyword overrides
        workflow: Any = partial(build_scenario, args.scenario)
    elif args.workflow:
        workflow = workflow_from_json(args.workflow)
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


def _scenario_payload(name: str) -> dict[str, Any]:
    scenario = get_scenario(name)
    return {
        "name": scenario.name,
        "description": scenario.description,
        "structure": scenario.structure,
        "parameters": scenario.parameters(),
        "cost_profile": {stage: list(bounds) for stage, bounds in scenario.cost_profile.items()},
        "failure_profile": dict(scenario.failure_profile),
        "tags": list(scenario.tags),
    }


def _command_scenarios(args: argparse.Namespace) -> int:
    names = (args.name,) if args.name else available_scenarios()
    if args.names:
        for name in names:
            print(name)
        return 0
    if args.json:
        print(json.dumps([_scenario_payload(name) for name in names], indent=2))
        return 0
    if args.name:
        scenario = get_scenario(args.name)
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
    print(f"scenarios ({len(names)}):")
    for name in names:
        scenario = get_scenario(name)
        tasks = len(scenario.build())
        print(f"  {name:<16} {tasks:>4} tasks at size={scenario.parameters().get('size')}  {scenario.description}")
    print("run 'ginflow scenarios NAME' for parameters and cost profiles")
    return 0


def _command_backends(args: argparse.Namespace) -> int:
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


def _command_validate(args: argparse.Namespace) -> int:
    from repro.analysis import Severity, analyze_workflow

    workflow = _resolve_workflow_source(args)
    workflow.validate()
    # Structural and JSON round-trip checks are delegated to the analyzer —
    # one implementation of cycle/orphan/JSON-safety shared with `ginflow
    # lint`.  Only error-severity structural findings fail validation (the
    # analyzer's warnings and rule-level findings belong to `lint`).
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


def _emit_findings(args: argparse.Namespace, report: Any) -> int:
    from repro.analysis import Severity

    fail_on = Severity.parse(args.fail_on)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(fail_on) + "\n")
    print(report.to_json(fail_on) if args.json else report.format_text())
    return 0 if report.ok(fail_on) else 1


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_all_scenarios, analyze_document, analyze_scenario

    _findings_target(args, "lint")
    if args.all_scenarios:
        report = analyze_all_scenarios()
    elif args.scenario:
        report = analyze_scenario(args.scenario)
    else:
        report = analyze_document(args.workflow)
    return _emit_findings(args, report)


def _command_audit(args: argparse.Namespace) -> int:
    from repro.analysis import audit_all_scenarios, audit_scenario, audit_workflow

    _findings_target(args, "audit")
    options = {
        "mode": args.mode,
        "nodes": args.nodes,
        "seed": args.seed,
        "repeats": args.repeats,
    }
    if args.all_scenarios:
        report = audit_all_scenarios(**options)
    elif args.scenario:
        report = audit_scenario(args.scenario, **options)
    else:
        report = audit_workflow(workflow_from_json(args.workflow), **options)
    return _emit_findings(args, report)


def _command_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "summarize":
        records = read_trace(args.trace_path)
        summary = summarize(records, top=args.top)
        if args.json:
            print(json.dumps(summary, indent=2))
        else:
            print(format_summary(summary))
        return 0
    if args.trace_command == "convert":
        records = read_trace(args.src)
        fmt = args.to_format
        if fmt is None:
            fmt = "jsonl" if args.dst.endswith(".jsonl") else "chrome"
        write_trace(records, args.dst, fmt)
        print(f"wrote {len(records)} records to {args.dst} ({fmt})")
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def _command_show_hocl(args: argparse.Namespace) -> int:
    workflow = workflow_from_json(args.workflow)
    encoding = encode_workflow(workflow)
    print(str(encoding.to_multiset()))
    return 0


_COMMANDS = {
    "run": _command_run,
    "sweep": _command_sweep,
    "scenarios": _command_scenarios,
    "backends": _command_backends,
    "validate": _command_validate,
    "lint": _command_lint,
    "audit": _command_audit,
    "trace": _command_trace,
    "show-hocl": _command_show_hocl,
}


@functools.cache  # once per process, however often main() is called
def _freeze_at_exit() -> None:
    """Keep the interpreter's last collection off the finished run: cyclic
    garbage it would walk just before the OS reclaims the pages.  Until exit
    nothing is frozen, so a caller of :func:`main` gets its collector back."""
    atexit.register(gc.freeze)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``ginflow`` console script."""
    _freeze_at_exit()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        configure_logging(args.log_level)
    command = _COMMANDS.get(args.command)
    if command is None:  # pragma: no cover - argparse enforces the choices
        return 2
    try:
        return command(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
