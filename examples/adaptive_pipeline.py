#!/usr/bin/env python3
"""Adaptive workflow: switch to an alternative scenario when a task fails.

This reproduces the paper's running example (Fig. 5-8) on a realistic
scenario: an image-processing pipeline whose "denoise-gpu" step is known to
be flaky.  The workflow declares an alternative sub-workflow ("denoise-cpu")
that is plugged in on-the-fly when the GPU step reports an error — the rest
of the pipeline is *not* restarted, and the final aggregation receives the
alternative branch's output instead.

Run with::

    python examples/adaptive_pipeline.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AdaptationSpec, GinFlow, Task, Workflow  # noqa: E402


def build_pipeline() -> Workflow:
    """acquire -> {denoise_gpu (flaky), contrast} -> fuse -> publish."""
    workflow = Workflow("imaging-pipeline")
    workflow.add_task(Task("acquire", service="acquire", inputs=["scan-042"]))
    # the GPU denoiser always fails in this demo (force_error), standing in
    # for a service running on a prone-to-failure platform
    workflow.add_task(Task("denoise_gpu", service="denoise_gpu", metadata={"force_error": True}))
    workflow.add_task(Task("contrast", service="contrast"))
    workflow.add_task(Task("fuse", service="fuse"))
    workflow.add_task(Task("publish", service="publish"))
    workflow.add_dependency("acquire", "denoise_gpu")
    workflow.add_dependency("acquire", "contrast")
    workflow.add_dependency("denoise_gpu", "fuse")
    workflow.add_dependency("contrast", "fuse")
    workflow.add_dependency("fuse", "publish")

    # the alternative scenario: a slower but reliable CPU denoiser
    alternative = Workflow("cpu-denoise")
    alternative.add_task(Task("denoise_cpu", service="denoise_cpu"))
    workflow.add_adaptation(
        AdaptationSpec(
            name="gpu-to-cpu",
            replaced=["denoise_gpu"],
            replacement=alternative,
            entry_sources={"denoise_cpu": ["acquire"]},
        )
    )
    workflow.validate()
    return workflow


def register_services(ginflow: GinFlow) -> None:
    ginflow.register_service("acquire", lambda scan: f"raw({scan})")
    ginflow.register_service("denoise_gpu", lambda raw: f"gpu-denoised({raw})")
    ginflow.register_service("denoise_cpu", lambda raw: f"cpu-denoised({raw})")
    ginflow.register_service("contrast", lambda raw: f"contrasted({raw})")
    ginflow.register_service("fuse", lambda a, b: f"fused({a} + {b})")
    ginflow.register_service("publish", lambda fused: f"published[{fused}]")


def main() -> int:
    workflow = build_pipeline()
    ginflow = GinFlow()
    register_services(ginflow)

    report = ginflow.run(workflow, mode="asyncio")
    print("pipeline succeeded:", report.succeeded)
    print("adaptations triggered:", report.adaptations_triggered)
    print("flaky task in error?:", report.tasks["denoise_gpu"].error)
    print("replacement output  :", report.tasks["denoise_cpu"].result)
    print("final output        :", report.results.get("publish"))
    print()
    print("timeline (state changes):")
    for event in report.timeline:
        print(f"  t={event.time:9.3f}  {event.task:12s}  {event.event}")
    return 0 if report.succeeded else 1


if __name__ == "__main__":
    raise SystemExit(main())
