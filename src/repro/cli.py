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

Every subcommand is one row of :data:`COMMANDS`: the ``"module:function"`` of
its handler, its help line and the function that adds its arguments.
:func:`build_parser` builds the whole parser from that table, and
:func:`main` imports a handler's module (:mod:`repro.commands`) only when it
dispatches to it; each handler imports what it runs, so a subcommand loads
only its own modules.  Backend choices (``--mode`` / ``--executor`` /
``--broker`` / ``--cluster``) and ``ginflow backends`` read the one table of
backends, :data:`repro.runtime.config.BACKENDS`, the one ``repro`` module
imported here.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import importlib
import sys
from typing import Callable, Sequence

from repro.runtime.config import BACKENDS

__all__ = ["COMMANDS", "main", "build_parser"]


def _add_workflow_source(parser: argparse.ArgumentParser) -> None:
    """The two workflow sources of ``run``/``sweep``: a JSON file or a scenario spec."""
    parser.add_argument("workflow", nargs="?", help="path to the JSON workflow definition")
    parser.add_argument(
        "--scenario",
        metavar="NAME[:K=V,...]",
        help="generate the workflow from a scenario of the catalog instead of a JSON file, "
        "e.g. --scenario cybershake:size=500,seed=3 (see 'ginflow scenarios')",
    )


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


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Source, configuration and tracing flags shared by ``run`` and ``sweep``
    (backend choices from the table of backends)."""
    _add_workflow_source(parser)
    parser.add_argument("--mode", default="simulated", choices=tuple(BACKENDS["runtime"]))
    parser.add_argument("--executor", default="ssh", choices=tuple(BACKENDS["executor"]))
    parser.add_argument("--broker", default="activemq", choices=tuple(BACKENDS["broker"]))
    parser.add_argument("--cluster", default="grid5000", choices=tuple(BACKENDS["cluster"]),
                        help="cluster preset (simulated mode)")
    parser.add_argument("--nodes", type=int, default=25, help="number of cluster nodes (simulated mode)")
    parser.add_argument("--seed", type=int, default=1, help="root random seed")
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


def _run_arguments(parser: argparse.ArgumentParser) -> None:
    _add_run_arguments(parser)
    parser.add_argument("--failure-probability", type=float, default=0.0, help="failure injection probability p")
    parser.add_argument("--failure-delay", type=float, default=0.0, help="failure injection delay T (seconds)")
    parser.add_argument("--json", action="store_true", help="print the report summary as JSON")


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    _add_run_arguments(parser)
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="sweep parameter (repeatable), e.g. --param nodes=5,10 --param broker=activemq,kafka",
    )
    parser.add_argument("--repeats", type=int, default=1, help="runs per grid cell")
    parser.add_argument("--workers", type=int, default=None, help="parallel workers (processes)")
    parser.add_argument("--csv", metavar="PATH", help="write the per-run rows as CSV")
    parser.add_argument("--json-out", metavar="PATH", help="write rows + aggregates as JSON")
    parser.add_argument("--json", action="store_true", help="print the sweep report as JSON")


def _scenarios_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", nargs="?", help="describe one scenario in detail")
    parser.add_argument("--json", action="store_true", help="print the listing as JSON")
    parser.add_argument("--names", action="store_true", help="print the bare scenario names, one per line")


def _backends_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=tuple(BACKENDS), help="restrict to one backend kind")
    parser.add_argument("--json", action="store_true", help="print the listing as JSON")


def _lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Run the repro.analysis checks (rule, workflow and scenario families) without executing "
        "anything; see the README's 'Static analysis' section for the check catalog."
    )
    _add_findings_arguments(parser, "lint every scenario of the catalog at its default parameters")


def _audit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Enact the workflow (or scenario) and run the repro.analysis dynamic checks (trace, run and "
        "plan families) on the artifacts the run produces; see the README's 'Dynamic analysis' "
        "section for the check catalog."
    )
    _add_findings_arguments(parser, "audit every scenario of the catalog at a small size (size=20)")
    parser.add_argument("--mode", default="simulated", choices=tuple(BACKENDS["runtime"]))
    parser.add_argument("--nodes", type=int, default=5, help="number of cluster nodes")
    parser.add_argument("--seed", type=int, default=1, help="root random seed")
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="runs per workflow (seeds seed..seed+repeats-1); rule coverage merges all runs",
    )


def _trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Work with traces recorded by 'ginflow run|sweep --trace': 'summarize' prints per-phase, "
        "per-agent and per-rule rollups plus the top spans by self-time; 'convert' translates "
        "between the streaming JSONL format and the Chrome trace-event format (loadable in Perfetto)."
    )
    subparsers = parser.add_subparsers(dest="trace_command", required=True)
    summarize = subparsers.add_parser("summarize", help="print rollups of a trace file")
    summarize.add_argument("trace_path", metavar="PATH", help="trace file (JSONL or Chrome format)")
    summarize.add_argument("--top", type=int, default=10, help="number of top spans to show")
    summarize.add_argument("--json", action="store_true", help="print the summary as JSON")
    convert = subparsers.add_parser("convert", help="convert a trace between formats")
    convert.add_argument("src", metavar="SRC", help="input trace file (format auto-detected)")
    convert.add_argument("dst", metavar="DST", help="output trace file")
    convert.add_argument(
        "--to",
        dest="to_format",
        choices=["jsonl", "chrome"],
        help="output format (default: chrome unless DST ends in .jsonl)",
    )


def _show_hocl_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workflow", help="path to the JSON workflow definition")


#: Every subcommand: name -> (handler as ``"module:function"``, help line,
#: function adding its arguments), in the order ``ginflow --help`` lists them.
#: A handler takes the parsed arguments and returns the exit status.
COMMANDS: dict[str, tuple[str, str, Callable[[argparse.ArgumentParser], None]]] = {
    "run": ("repro.commands:run", "execute a JSON workflow or a scenario of the catalog", _run_arguments),
    "sweep": ("repro.commands:sweep", "execute a workflow over a parameter grid", _sweep_arguments),
    "scenarios": (
        "repro.commands:scenarios",
        "list the workflow scenarios of the catalog (or describe one)",
        _scenarios_arguments,
    ),
    "backends": ("repro.commands:backends", "list the built-in backends", _backends_arguments),
    "validate": (
        "repro.commands:validate",
        "validate a workflow definition and its JSON round-trip",
        _add_workflow_source,
    ),
    "lint": (
        "repro.commands:lint",
        "statically analyze workflows, scenarios and their HOCL rules",
        _lint_arguments,
    ),
    "audit": (
        "repro.commands:audit",
        "dynamically analyze runs: rule coverage, enactment invariants, adaptation plans",
        _audit_arguments,
    ),
    "trace": ("repro.commands:trace", "inspect or convert a recorded trace file", _trace_arguments),
    "show-hocl": ("repro.commands:show_hocl", "print the HOCL encoding of a workflow", _show_hocl_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``ginflow`` command, one subparser per row of :data:`COMMANDS`."""
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
    for name, (_handler, help_line, add_arguments) in COMMANDS.items():
        add_arguments(subparsers.add_parser(name, help=help_line))
    return parser


@functools.cache  # once per process, however often main() is called
def _freeze_at_exit() -> None:
    """Keep the interpreter's last collection off the finished run: cyclic
    garbage it would walk just before the OS reclaims the pages.  Until exit
    nothing is frozen, so a caller of :func:`main` gets its collector back."""
    atexit.register(gc.freeze)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``ginflow`` console script."""
    _freeze_at_exit()
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs.logs import configure_logging

        configure_logging(args.log_level)
    module, _, function = COMMANDS[args.command][0].partition(":")
    try:
        return getattr(importlib.import_module(module), function)(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
