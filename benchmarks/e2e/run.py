"""End-to-end ``ginflow run`` benchmark with an outside-in per-layer breakdown.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed 1] [--samples 7] [--out PATH]
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --compare A.json B.json

Load model: ``ginflow run`` is a batch CLI, so this is a closed loop with one
client — a single process that spawns one child at a time, pinned with it to
one CPU.  Samples are interleaved round-robin across the selected workloads
(round 0 is discarded as warm-up) so machine drift hits all workloads alike.
Every sample is ``python launch.py <ginflow argv>`` with tracing off; its
``--json`` report is checked against ``workloads.py``.  Unless ``--trace 0``,
every round also runs one traced child per workload (``launch.py --probe``)
whose spans give the per-layer metrics.  Names, units and bounds of the
metrics are read from ``BENCHMARK.json``; see README.md for what each means.

The box is a few vCPUs of a shared host whose speed steps between levels up to
2x apart every few seconds, so a ``Speedometer`` thread times a fixed 0.1 ms
loop on the children's CPU every 20 ms, and every time is reported at the
reference speed: the seconds it would have been had that loop always run in
``PROBE_REFERENCE_S``.  The ``host.*`` per-layer metrics are the wall as the
clock read it and the speed.

The last line of standard output is one JSON object: for one workload
``{"correct", "attempted", "failed", "metrics"}`` (attempted / failed count
tasks), for several the same object per workload under ``"workloads"``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from probe import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    ADAPTIVE_DIAMOND_FILE, SCALES, WORKLOADS, Workload, check_report, completed_tasks, ginflow_argv,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END: dict[str, dict[str, Any]] = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER: dict[str, dict[str, Any]] = {metric["name"]: metric for metric in SPEC["per_layer"]}

#: a sample that runs longer is killed and all its tasks count as failed
SAMPLE_TIMEOUT_S = 120.0
#: with --seconds: fewest timed rounds.  A traced round is two children per
#: workload and nothing bounds the per-layer numbers, so it needs fewer.
MIN_ROUNDS = {False: 5, True: 2}
#: what ``Speedometer.probe`` takes on the reference box when nothing else
#: contends for the core; reported seconds are seconds at this speed
PROBE_REFERENCE_S = 145e-6
PROBE_INTERVAL_S = 0.02


# ----------------------------------------------------------------- host speed
class Speedometer(threading.Thread):
    """Times a fixed loop every ``PROBE_INTERVAL_S`` on the CPU the children run on.

    Work done is speed integrated over time, so the speed of an interval is
    the mean of ``PROBE_REFERENCE_S / probe time`` over the probes in it; a
    probe the host interrupted reads long and counts as nearly no work, which
    is what happened.  The probes take under 1 % of the CPU.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.probes: list[tuple[float, float]] = []  # (time.monotonic(), speed)
        self._stop_event = threading.Event()

    @staticmethod
    def probe() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(4000):
            total += i * i
        return time.perf_counter() - start

    def run(self) -> None:
        while not self._stop_event.wait(PROBE_INTERVAL_S):
            self.probes.append((time.monotonic(), PROBE_REFERENCE_S / self.probe()))

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def speed(self, start: float, end: float) -> float | None:
        """Mean speed over ``[start, end]`` (1.0 = reference), ``None`` without a probe in it."""
        # children run one after the other, so the interval is near the end of the list
        found = []
        for at, speed in reversed(self.probes):
            if at < start:
                break
            if at <= end:
                found.append(speed)
        return statistics.fmean(found) if found else None


# ------------------------------------------------------------------ one child
def run_child(
    workload: Workload, scale: str, seed: int, workdir: str, meter: Speedometer, spans: str | None = None,
) -> dict[str, Any]:
    """Spawn one sample, wait for it, check its report; ``spans`` = traced.

    Its times are at the reference speed, each stretch of the child by the
    speed ``meter`` measured during it.
    """
    probe = [] if spans is None else ["--probe" + (f"={spans}" if spans else "")]
    argv = [sys.executable, str(HERE / "launch.py"), *probe, *ginflow_argv(workload, scale, seed, workdir)]
    # bytecode is cached as a user's would be, but in the work directory: round 0
    # compiles, the timed rounds load, and nothing is left in the source tree
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src"),
           "PYTHONPYCACHEPREFIX": f"{workdir}/pycache"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    expected = completed_tasks(workload, scale)
    with tempfile.TemporaryFile("w+", dir=workdir) as out, tempfile.TemporaryFile("w+", dir=workdir) as err:
        t_spawn = time.monotonic()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.monotonic()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    sample: dict[str, Any] = {"expected_tasks": expected, "failed_tasks": expected, "problems": []}
    try:
        summary = json.loads(stdout)
        stamps = json.loads(stderr.strip().splitlines()[-1])
        enter, leave = stamps["t_run_enter"], stamps["t_run_exit"]
    except (ValueError, IndexError, KeyError, TypeError):
        sample["problems"].append(f"exit {child.returncode}, no report: {stderr.strip()[-300:]}")
        return sample
    if child.returncode != 0:
        sample["problems"].append(f"exit {child.returncode}")
    if stamps.get("probe", {}).get("restored") is False:
        sample["problems"].append("probe.uninstall left repro patched")
    sample["problems"] += check_report(workload, scale, seed, summary)
    if not sample["problems"]:
        sample["failed_tasks"] = 0
    overall = meter.speed(t_spawn, t_exit) or 1.0

    def at_reference(start: float, end: float) -> float:
        return (end - start) * (meter.speed(start, end) or overall)  # no probe in a stretch under 20 ms

    setup_s, enact_s, exit_s = at_reference(t_spawn, enter), at_reference(enter, leave), at_reference(leave, t_exit)
    wall_s = setup_s + enact_s + exit_s
    sample.update(
        summary=summary,
        probe=stamps.get("probe"),
        import_s=at_reference(t_spawn, stamps["t_imported"]),
        exit_s=exit_s,
        wall_raw_s=t_exit - t_spawn,
        import_raw_s=stamps["t_imported"] - t_spawn,
        return_raw_s=leave - t_spawn,
        speed=wall_s / (t_exit - t_spawn),
        end_to_end={
            "wall_s": wall_s,
            "setup_s": setup_s,
            "enact_s": enact_s,
            "tasks_per_s": summary["completed_tasks"] / enact_s,
            "cpu_s": (usage.ru_utime + usage.ru_stime) * overall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        },
    )
    return sample


# -------------------------------------------------------------------- measure
def write_adaptive_diamond(size: int, workdir: str) -> None:
    """Set-up of ``adapt-diamond-sim``: the Fig. 13 workflow as a JSON file."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import adaptive_diamond_workflow, workflow_to_json

    workflow_to_json(
        adaptive_diamond_workflow(size, size, "full", "simple", duration=0.1),
        f"{workdir}/{ADAPTIVE_DIAMOND_FILE}",
    )


def measure(
    workloads: list[Workload], *, scale: str, seed: int, traced: bool, samples: int | None,
    seconds: float | None, workdir: str, spans_stem: str | None,
) -> dict[str, dict[str, list[dict[str, Any]]]]:
    """Run the rounds; per workload the timed ``untraced`` and ``traced`` samples."""
    if hasattr(os, "sched_setaffinity"):
        # this process only waits while a child runs, so they share the CPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for workload in workloads:
        if workload.scenario is None:
            write_adaptive_diamond(workload.size[scale], workdir)
    runs: dict[str, dict[str, list[dict[str, Any]]]] = {w.name: {"untraced": [], "traced": []} for w in workloads}
    meter = Speedometer()  # after the pinning: a thread starts on its parent's CPUs
    meter.start()
    try:
        if scale == "full":  # round 0: fills the page cache and the bytecode cache
            for workload in workloads:
                run_child(workload, scale, seed, workdir, meter)
        started = time.monotonic()
        rounds = 0
        while True:
            round_started = time.monotonic()
            for workload in workloads:
                runs[workload.name]["untraced"].append(run_child(workload, scale, seed, workdir, meter))
                if traced:
                    spans = f"{spans_stem}.{workload.name}.spans.jsonl" if spans_stem else ""
                    runs[workload.name]["traced"].append(run_child(workload, scale, seed, workdir, meter, spans))
            rounds += 1
            now = time.monotonic()
            if samples is not None:
                if rounds >= samples:
                    return runs
            elif rounds >= MIN_ROUNDS[traced] and (now - started) + (now - round_started) / 2 >= seconds:
                return runs  # the round count nearest to --seconds
    finally:
        meter.stop()


# --------------------------------------------------------------------- reduce
def quartiles(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and count of ``values`` (as ``statistics.quantiles`` gives them)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def reduce_workload(workload: Workload, runs: dict[str, list[dict[str, Any]]]) -> dict[str, Any]:
    """Medians of one workload's samples, its failure counts and its problems."""
    everything = runs["untraced"] + runs["traced"]
    result: dict[str, Any] = {
        "attempted": sum(sample["expected_tasks"] for sample in everything),
        "failed": sum(sample["failed_tasks"] for sample in everything),
        "problems": [problem for sample in everything for problem in sample["problems"]],
        "end_to_end": {},
        "per_layer": {},
    }
    good = [sample for sample in runs["untraced"] if not sample["problems"]]
    traced = [sample for sample in runs["traced"] if not sample["problems"]]
    if good:
        for name in END_TO_END:
            result["end_to_end"][name] = quartiles([sample["end_to_end"][name] for sample in good])
    if good and traced:
        # the probe must not change behaviour: same report with and without it
        ignored = ("execution_time", "makespan") if workload.real_time else ()
        reference = {key: value for key, value in good[0]["summary"].items() if key not in ignored}
        for sample in traced:
            if {key: value for key, value in sample["summary"].items() if key not in ignored} != reference:
                result["problems"].append("traced run's report differs from the untraced one")
                result["failed"] = max(result["failed"], sample["expected_tasks"])
        untraced_enact_s = result["end_to_end"]["enact_s"]["median"]
        per_run = []
        for sample in traced:
            # span times are the child's own clock readings: bring them to the reference speed
            stats = {name: (calls, self_s * sample["speed"]) for name, (calls, self_s) in sample["probe"]["stats"].items()}
            metrics = layer_metrics({**sample["probe"], "stats": stats})
            # a ratio, so of the clock's readings
            attributed = sample["import_raw_s"] + sum(self_s for _, self_s in sample["probe"]["stats"].values())
            metrics["trace.coverage"] = attributed / sample["return_raw_s"]
            metrics["trace.overhead_ratio"] = sample["end_to_end"]["enact_s"] / untraced_enact_s
            per_run.append(metrics)
        result["per_layer"] = {
            # process edges and the host, from the untraced samples: no probe import or report in them
            "cli.import_s": statistics.median(sample["import_s"] for sample in good),
            "cli.exit_s": statistics.median(sample["exit_s"] for sample in good),
            **{name: statistics.median(metrics[name] for metrics in per_run) for name in per_run[0]},
            "host.wall_raw_s": statistics.median(sample["wall_raw_s"] for sample in good),
            "host.speed_ratio": statistics.median(sample["speed"] for sample in good),
        }
    result["correct"] = not result["problems"] and result["failed"] == 0
    return result


def contract_object(result: dict[str, Any], trace: int | None) -> dict[str, Any]:
    """The ``{"correct", "attempted", "failed", "metrics"}`` object of one workload."""
    metrics = {}
    if trace != 1:
        for name, spec in END_TO_END.items():
            metrics[name] = {"value": result["end_to_end"][name]["median"], "unit": spec["unit"]}
    if trace != 0:
        for name, spec in PER_LAYER.items():
            metrics[name] = {"value": result["per_layer"][name], "unit": spec["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_report(name: str, result: dict[str, Any]) -> None:
    print(f"== {name}: {result['failed']} of {result['attempted']} tasks failed")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")
    for metric, stats in result["end_to_end"].items():
        unit = END_TO_END[metric]["unit"]
        print(f"   {metric:<36} {stats['median']:>14.4f} {unit:<8} "
              f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}")
    for metric, value in result["per_layer"].items():
        print(f"   {metric:<36} {value:>14.4f} {PER_LAYER[metric]['unit']}")


# -------------------------------------------------------------------- compare
def compare(path_a: str, path_b: str) -> int:
    """Print A against B per workload x end-to-end metric; 1 on any regression."""
    a, b = (json.loads(Path(path).read_text(encoding="utf-8"))["workloads"] for path in (path_a, path_b))
    regressed = False
    print(f"{'workload':<18} {'metric':<12} {'A median [q1, q3]':<32} {'B median [q1, q3]':<32} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for name in a:
        if name not in b:
            continue
        if b[name]["failed"] > 0:  # failed_ratio has an absolute bound of 0
            regressed = True
            print(f"{name:<18} failed_ratio {a[name]['failed']}/{a[name]['attempted']} -> "
                  f"{b[name]['failed']}/{b[name]['attempted']}  regressed")
        for metric, spec in END_TO_END.items():
            side_a, side_b = a[name]["end_to_end"][metric], b[name]["end_to_end"][metric]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse_by = sign * (side_b["median"] - side_a["median"]) / side_a["median"]
            spread = max((side["q3"] - side["q1"]) / side["median"] for side in (side_a, side_b))
            if spread > spec["bound"]:
                verdict = "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "same"
            cells = [f"{side['median']:.4f} [{side['q1']:.4f}, {side['q3']:.4f}]" for side in (side_a, side_b)]
            print(f"{name:<18} {metric:<12} {cells[0]:<32} {cells[1]:<32} "
                  f"{worse_by:>+9.2%} {spec['bound']:>6.0%}  {verdict}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1, help="scenario seed and ginflow run --seed")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--samples", type=int, help="timed rounds (default 7)")
    length.add_argument("--seconds", type=float, help="measure for about this long instead of --samples")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="last line: 0 = end-to-end metrics only (no traced runs), 1 = per-layer only")
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--out", metavar="PATH", help="write all results as JSON; spans go beside it")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    workloads = [workload for workload in WORKLOADS if workload.name in (args.workload or names)]
    samples = None if args.seconds is not None else args.samples or 7
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=HERE) as workdir:
        runs = measure(
            workloads, scale=args.scale, seed=args.seed, traced=args.trace != 0, samples=samples,
            seconds=args.seconds, workdir=workdir,
            spans_stem=args.out.removesuffix(".json") if args.out else None,
        )
    results = {workload.name: reduce_workload(workload, runs[workload.name]) for workload in workloads}
    for name, result in results.items():
        print_report(name, result)
    if args.out:
        document = {"seed": args.seed, "scale": args.scale, "workloads": results}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    correct = all(result["correct"] for result in results.values())
    if not correct:
        print("error: incorrect output, see the PROBLEM lines above", file=sys.stderr)
    if not all(result["end_to_end"] and (args.trace == 0 or result["per_layer"]) for result in results.values()):
        return 1  # no sample to take a metric from: no result line
    objects = {name: contract_object(result, args.trace) for name, result in results.items()}
    if len(objects) == 1:
        (last_line,) = objects.values()
    else:
        last_line = {
            "correct": correct,
            "attempted": sum(item["attempted"] for item in objects.values()),
            "failed": sum(item["failed"] for item in objects.values()),
            "workloads": objects,
        }
    print(json.dumps(last_line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
