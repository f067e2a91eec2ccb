"""Size axis of the set-up layer: building and loading a workflow is one linear pass.

Every ``ginflow run`` builds, checks and translates its workflow before an
agent starts (``setup_s`` of the end-to-end benchmark).  Two of those paths are
timed here at three sizes each, best of three:

* ``build_scenario("montage:size=N,seed=1")`` at N = 1000 / 2000 / 4000 tasks
  (one fan-out of N - 10 edges and the fan-in back);
* ``workflow_from_json`` of the parsed document of the Fig. 13 simple-to-simple
  adaptive diamond at width = depth = 21 / 42 / 84 (443 / 1766 / 7058 tasks,
  and a replacement as large), whose one adaptation replaces the whole body.

The least-squares exponent of wall over tasks is gated at 1.2 for each: a
per-edge scan of an adjacency list or a per-task list membership test in the
adaptation checks shows as an exponent of 1.5 or more.  The collector is off
while a path is timed: what a full collection costs depends on everything else
the process holds, not on the workflow.
"""

from __future__ import annotations

import gc
import time
from functools import partial

from test_bench_reduction import size_exponent

from repro.scenarios import build_scenario
from repro.workflow import adaptive_diamond_workflow, workflow_from_json, workflow_to_dict

#: the largest exponent of wall over tasks either set-up path may show
MAX_EXPONENT = 1.2


def _best_wall(run, runs: int = 3) -> float:
    walls = []
    for _ in range(runs):
        gc.disable()
        try:
            start = time.perf_counter()
            run()
            walls.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return min(walls)


def _gated(path: str, tasks: list[int], walls: list[float]) -> None:
    exponent = size_exponent(tasks, walls)
    table = ", ".join(f"{count} tasks {1e3 * wall:.1f} ms" for count, wall in zip(tasks, walls))
    assert exponent <= MAX_EXPONENT, f"{path} grows as n^{exponent} > n^{MAX_EXPONENT}: {table}"


def test_montage_build_is_linear():
    sizes = [1000, 2000, 4000]
    walls = [_best_wall(partial(build_scenario, f"montage:size={size},seed=1")) for size in sizes]
    _gated("montage scenario build", sizes, walls)


def test_adaptive_diamond_load_is_linear():
    documents = [workflow_to_dict(adaptive_diamond_workflow(n, n, "simple", "simple")) for n in (21, 42, 84)]
    tasks = [2 + n * n for n in (21, 42, 84)]
    walls = [_best_wall(partial(workflow_from_json, document)) for document in documents]
    _gated("adaptive diamond JSON load", tasks, walls)
