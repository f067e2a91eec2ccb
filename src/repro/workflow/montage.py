"""A Montage-like workflow generator.

The resilience experiment of the paper (Section V-D, Fig. 15/16) uses a
118-task workflow built from the Montage astronomy toolbox: a mosaic of the
M45 star cluster assembled from hundreds of input images.  The Montage
binaries are not available offline, so this module generates a workflow with
the *same coordination structure and cost profile*:

* 118 tasks in total,
* a large parallel stage of 108 (re-)projection tasks whose durations are
  heterogeneous, spread between 60 s and 310 s (the paper's reported range),
* a handful of short preparation tasks (duration < 20 s),
* a chain of merge/background-correction tasks of intermediate duration
  (20 s – 60 s) ending in the sensitive final co-addition step,
* a no-failure makespan of ≈ 484 s (the paper's baseline), dominated by the
  longest projection plus the merge chain.

Services are declared *idempotent* (``metadata["idempotent"] = True``) since
the recovery mechanism re-invokes them after an agent failure.
"""

from __future__ import annotations

from repro.simkernel.randomness import PCG64

from .dag import Task, Workflow

__all__ = ["montage_workflow", "duration_classes", "duration_cdf", "MONTAGE_TASK_COUNT"]

#: Number of tasks in the paper's Montage workflow.
MONTAGE_TASK_COUNT = 118

#: Number of tasks in the wide parallel (projection) stage, as printed on Fig. 15.
MONTAGE_PARALLEL_WIDTH = 108

#: Fixed durations (seconds) of the non-projection tasks, chosen so the
#: critical path ≈ 484 s, matching the paper's no-failure baseline.
_FIXED_DURATIONS: dict[str, float] = {
    "mArchiveList": 5.0,
    "mHdr": 8.0,
    "mImgtbl": 12.0,
    "mDiffFit_1": 25.0,
    "mDiffFit_2": 25.0,
    "mDiffFit_3": 25.0,
    "mBgModel": 20.0,
    "mBgExec": 30.0,
    "mAdd": 65.0,
    "mJPEG": 10.0,
}

#: Duration range of the projection tasks (the paper: "from 60s to 310s").
_PROJECTION_RANGE = (60.0, 310.0)


def _projection_durations(count: int, seed: int) -> list[float]:
    """Heterogeneous projection durations, deterministic for a given seed.

    Durations are evenly spread over the published range with a small seeded
    jitter, and the maximum is pinned to the top of the range so that the
    critical path (and therefore the no-failure makespan) is stable across
    seeds — the paper reports a 484 s mean with a 13.5 s standard deviation
    caused by platform noise, which the simulation models separately.
    """
    rng = PCG64(seed)
    low, high = _PROJECTION_RANGE
    step = (high - low) / max(count - 1, 1)
    jitter = rng.uniform(-5.0, 5.0, count)
    durations = [min(max(index * step + low + offset, low), high) for index, offset in enumerate(jitter)]
    durations[-1] = high  # pin the longest projection
    return rng.permutation(durations)


def montage_workflow(
    projections: int = MONTAGE_PARALLEL_WIDTH,
    seed: int = 1,
    duration_scale: float = 1.0,
    name: str = "montage-m45",
) -> Workflow:
    """Build the Montage-like workflow.

    Parameters
    ----------
    projections:
        Width of the parallel projection stage (108 reproduces the paper).
    seed:
        Seed for the projection-duration jitter (deterministic workflows).
    duration_scale:
        Multiplier applied to every duration — handy for fast tests
        (``duration_scale=0.01`` runs the whole workflow in a few seconds of
        virtual time).
    """
    workflow = Workflow(name=name)

    def add(task_name: str, duration: float, stage: str, **metadata: object) -> Task:
        return workflow.add_task(
            Task(
                name=task_name,
                service="montage",
                duration=duration * duration_scale,
                metadata={"stage": stage, "idempotent": True, **metadata},
            )
        )

    add("mArchiveList", _FIXED_DURATIONS["mArchiveList"], "prepare")
    workflow.task("mArchiveList").inputs.append("m45-archive")
    add("mHdr", _FIXED_DURATIONS["mHdr"], "prepare")
    workflow.add_dependency("mArchiveList", "mHdr")

    projection_durations = _projection_durations(projections, seed)
    for index in range(1, projections + 1):
        task_name = f"mProject_{index}"
        add(task_name, projection_durations[index - 1], "project", index=index)
        workflow.add_dependency("mHdr", task_name)

    add("mImgtbl", _FIXED_DURATIONS["mImgtbl"], "table")
    for index in range(1, projections + 1):
        workflow.add_dependency(f"mProject_{index}", "mImgtbl")

    for diff_index in (1, 2, 3):
        task_name = f"mDiffFit_{diff_index}"
        add(task_name, _FIXED_DURATIONS[task_name], "diff")
        workflow.add_dependency("mImgtbl", task_name)

    add("mBgModel", _FIXED_DURATIONS["mBgModel"], "background")
    for diff_index in (1, 2, 3):
        workflow.add_dependency(f"mDiffFit_{diff_index}", "mBgModel")

    add("mBgExec", _FIXED_DURATIONS["mBgExec"], "background")
    workflow.add_dependency("mBgModel", "mBgExec")

    add("mAdd", _FIXED_DURATIONS["mAdd"], "merge")
    workflow.add_dependency("mBgExec", "mAdd")

    add("mJPEG", _FIXED_DURATIONS["mJPEG"], "publish")
    workflow.add_dependency("mAdd", "mJPEG")

    return workflow


def duration_classes(workflow: Workflow) -> dict[str, int]:
    """Count tasks per duration class as reported on Fig. 15.

    Classes: ``T<20``, ``20<T<60``, ``60<T`` (boundaries in seconds, applied
    to unscaled durations when the workflow carries a ``duration_scale``
    metadata, otherwise to the stored durations).
    """
    counts = {"T<20": 0, "20<T<60": 0, "60<T": 0}
    for task in workflow:
        duration = task.duration
        if duration < 20:
            counts["T<20"] += 1
        elif duration < 60:
            counts["20<T<60"] += 1
        else:
            counts["60<T"] += 1
    return counts


def duration_cdf(workflow: Workflow) -> tuple[list[float], list[float]]:
    """The task-duration CDF plotted on Fig. 15.

    Returns ``(durations, fraction)`` where ``fraction[i]`` is the fraction
    of tasks whose duration is ≤ ``durations[i]``.
    """
    durations = sorted(float(task.duration) for task in workflow)
    fraction = [rank / len(durations) for rank in range(1, len(durations) + 1)]
    return durations, fraction
