#!/usr/bin/env python3
"""Quickstart: define a workflow, run it, inspect the report.

This example builds the small diamond workflow of the paper's Fig. 2
(T1 fans out to T2/T3 which join into T4), registers real Python services
for each task, and executes it three times — once per execution mode:

* ``centralized`` — one HOCL interpreter rewrites the whole multiset;
* ``asyncio``     — one service agent per task on one event loop, in-process broker;
* ``simulated``   — the virtual-time distributed runtime on a simulated
  25-node cluster (what the paper's experiments use).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import GinFlow, Task, Workflow  # noqa: E402


def build_workflow() -> Workflow:
    """The Fig. 2 diamond: T1 -> {T2, T3} -> T4."""
    workflow = Workflow("quickstart-diamond")
    workflow.add_task(Task("T1", service="tokenize", inputs=["the quick brown fox"]))
    workflow.add_task(Task("T2", service="count_words"))
    workflow.add_task(Task("T3", service="longest_word"))
    workflow.add_task(Task("T4", service="summarize"))
    workflow.add_dependency("T1", "T2")
    workflow.add_dependency("T1", "T3")
    workflow.add_dependency("T2", "T4")
    workflow.add_dependency("T3", "T4")
    workflow.validate()
    return workflow


def register_services(ginflow: GinFlow) -> None:
    """Plug real Python callables behind the service names."""
    ginflow.register_service("tokenize", lambda text: text.split())
    ginflow.register_service("count_words", lambda words: len(words))
    ginflow.register_service("longest_word", lambda words: max(words, key=len))
    ginflow.register_service(
        "summarize", lambda count, longest: f"{count} words, longest is {longest!r}"
    )


def main() -> int:
    workflow = build_workflow()
    ginflow = GinFlow()
    register_services(ginflow)

    print(f"workflow: {workflow.name} — {len(workflow)} tasks, {len(workflow.dependencies())} dependencies")
    print()

    for mode in ("centralized", "asyncio", "simulated"):
        report = ginflow.run(workflow, mode=mode, nodes=5)
        print(f"[{mode}] succeeded={report.succeeded}  T4 result: {report.results.get('T4')!r}")
        if mode == "simulated":
            print(f"          deployment {report.deployment_time:.2f} s, "
                  f"execution {report.execution_time:.2f} s, "
                  f"{report.messages_published} messages")
    print()
    print(report.format_summary())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
