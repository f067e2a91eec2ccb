"""Size axis of the set-up layer: building and loading a workflow is one linear pass.

Every ``ginflow run`` builds, checks and translates its workflow before an
agent starts (``setup_s`` of the end-to-end benchmark).  Two of those paths are
timed here at three sizes each spanning a factor of 16, best of five rounds:

* ``build_scenario("montage:size=N,seed=1")`` at N = 500 / 2000 / 8000 tasks
  (one fan-out of N - 10 edges and the fan-in back);
* ``workflow_from_json`` of the parsed document of the Fig. 13 simple-to-simple
  adaptive diamond at width = depth = 21 / 42 / 84 (443 / 1766 / 7058 tasks,
  and a replacement as large), whose one adaptation replaces the whole body.

The least-squares exponent of time over tasks is gated at 1.2 for each: a
per-edge scan of an adjacency list or a per-task list membership test in the
adaptation checks shows as an exponent of 1.5 or more.  What is timed is the
thread's CPU time (``time.thread_time``), not the wall: the time the thread
waits while another process holds the core is not the workflow's.  The
collector is off while a path is timed, after a collection: what a full
collection costs depends on everything else the process holds, not on the
workflow.  The sizes are timed round-robin — each round times every size
once, each size keeps its best round — so a stretch of slow CPU (a shared host
steps its vCPUs between speeds for seconds at a time) hits every size alike
instead of inflating the largest one's time, and a sixteen-fold range keeps
what noise is left from moving the exponent much: a 20 % error on one size
moves it by at most 0.07, against 0.13 over a four-fold range.
"""

from __future__ import annotations

import gc
import time
from functools import partial

from test_bench_reduction import size_exponent

from repro.scenarios import build_scenario
from repro.workflow import adaptive_diamond_workflow, workflow_from_json, workflow_to_dict

#: the largest exponent of CPU time over tasks either set-up path may show
MAX_EXPONENT = 1.2


def _best_times(runs: list, rounds: int = 5) -> list[float]:
    """The best CPU time of each of ``runs``, timed round-robin over ``rounds`` rounds."""
    times = [float("inf")] * len(runs)
    for _ in range(rounds):
        for index, run in enumerate(runs):
            gc.collect()  # what the previous run left is not this one's to allocate around
            gc.disable()
            try:
                start = time.thread_time()
                run()
                times[index] = min(times[index], time.thread_time() - start)
            finally:
                gc.enable()
    return times


def _gated(path: str, tasks: list[int], times: list[float]) -> None:
    exponent = size_exponent(tasks, times)
    table = ", ".join(f"{count} tasks {1e3 * seconds:.1f} ms" for count, seconds in zip(tasks, times))
    assert exponent <= MAX_EXPONENT, f"{path} grows as n^{exponent} > n^{MAX_EXPONENT}: {table}"


def test_montage_build_is_linear():
    sizes = [500, 2000, 8000]
    times = _best_times([partial(build_scenario, f"montage:size={size},seed=1") for size in sizes])
    _gated("montage scenario build", sizes, times)


def test_adaptive_diamond_load_is_linear():
    documents = [workflow_to_dict(adaptive_diamond_workflow(n, n, "simple", "simple")) for n in (21, 42, 84)]
    tasks = [2 + n * n for n in (21, 42, 84)]
    times = _best_times([partial(workflow_from_json, document) for document in documents])
    _gated("adaptive diamond JSON load", tasks, times)
