"""The simulated timeline, pinned cell by cell.

``tests/fixtures/sim_timeline_digests.json`` holds, for every cell below, what
one ``SimulatedRun`` produced: the makespan (``float.hex``, so the last bit
counts), the message and kernel-entry counts, the injected failures and a sha1
over every task's ``(name, started_at, finished_at, attempts, failures)``.  A
change to the simulation kernel, the simulated broker or the simulated driver
must reproduce the file byte for byte: the modelled stages, their order and
their float arithmetic are behaviour, not implementation.

    PYTHONPATH=src python tests/test_sim_timeline.py     # rewrite the fixture
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

import pytest

from repro import adaptive_diamond_workflow, diamond_workflow
from repro.cluster.network import NetworkModel
from repro.runtime import CostModel, GinFlowConfig
from repro.runtime.simulation import SimulatedRun
from repro.scenarios import available_scenarios, build_scenario
from repro.services import FailureModel
from repro.workflow import Workflow

FIXTURE = Path(__file__).parent / "fixtures" / "sim_timeline_digests.json"

WORKFLOWS: dict[str, Callable[[], Workflow]] = {
    **{name: (lambda name=name: build_scenario(f"{name}:size=24,seed=3")) for name in available_scenarios()},
    "diamond-simple": lambda: diamond_workflow(4, 4, "simple"),
    "diamond-full": lambda: diamond_workflow(4, 4, "full"),
    "adaptive-diamond": lambda: adaptive_diamond_workflow(4, 4, "full", "simple"),
}

#: cell id -> (workflow name, GinFlowConfig fields)
CELLS: dict[str, tuple[str, dict[str, Any]]] = {
    f"{workflow}/{broker}/{executor}": (workflow, {"broker": broker, "executor": executor})
    for workflow in WORKFLOWS
    for broker in ("activemq", "kafka")
    for executor in ("ssh", "mesos")
}
CELLS["montage/failures"] = (
    "montage",
    {"broker": "kafka", "executor": "mesos", "failures": FailureModel(probability=0.5, delay=15.0)},
)
CELLS["diamond-full/dispatchers-3"] = ("diamond-full", {"costs": CostModel(broker_dispatchers=3)})
# no jitter: deliveries really tie on the clock, and only insertion order separates them
CELLS["diamond-full/zero-jitter"] = ("diamond-full", {"network": NetworkModel()})


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def digest(cell: str) -> dict[str, Any]:
    """What one simulated run of ``cell`` produced, down to the last bit."""
    workflow, options = CELLS[cell]
    report = SimulatedRun(WORKFLOWS[workflow](), GinFlowConfig(seed=1, **options)).run()
    rows = [
        (task.task, _hex(task.started_at), _hex(task.finished_at), task.attempts, task.failures)
        for task in report.tasks.values()
    ]
    return {
        "makespan": report.makespan.hex(),
        "messages_published": report.messages_published,
        "virtual_events": report.virtual_events,
        "failures_injected": report.failures_injected,
        "tasks_sha1": hashlib.sha1(json.dumps(rows).encode("utf-8")).hexdigest(),
    }


def test_fixture_covers_exactly_the_cells():
    assert sorted(json.loads(FIXTURE.read_text(encoding="utf-8"))) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_timeline_is_bit_identical(cell):
    assert digest(cell) == json.loads(FIXTURE.read_text(encoding="utf-8"))[cell]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({cell: digest(cell) for cell in sorted(CELLS)}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CELLS)} cells to {FIXTURE}")
