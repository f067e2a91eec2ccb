"""Smoke test of the end-to-end benchmark harness (tier-1, a few seconds).

Runs ``run.py --scale smoke`` (every workload at <= 40 tasks, one sample, one
traced run) and checks what it emits against ``BENCHMARK.json``; then drives
the probe in this process to check that it leaves ``repro`` unpatched.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from probe import Probe, _targets  # noqa: E402


def test_smoke_run_emits_exactly_the_declared_metrics(tmp_path: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--samples", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr
    declared = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    last_line = json.loads(done.stdout.strip().splitlines()[-1])
    assert last_line["correct"] is True and last_line["failed"] == 0
    assert list(last_line["workloads"]) == [workload["name"] for workload in spec["workloads"]]
    computed = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    for name, emitted in last_line["workloads"].items():
        assert emitted["attempted"] > 0 and emitted["failed"] == 0
        assert {metric: value["unit"] for metric, value in emitted["metrics"].items()} == declared
        # nothing the harness computes goes undeclared
        assert set(computed[name]["end_to_end"]) | set(computed[name]["per_layer"]) == set(declared)
        assert emitted["metrics"]["trace.coverage"]["value"] >= 0.9
        assert (tmp_path / f"smoke.{name}.spans.jsonl").stat().st_size > 0
    only = {name for name, emitted in last_line["workloads"].items()
            if emitted["metrics"]["runtime.enactment.recover_calls"]["value"] > 0}
    assert only == {"montage-recover"}


def _probe_wrappers_left() -> list[str]:
    """Every attribute of a ``repro`` module or class still bound to a probe wrapper."""
    left = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        holders = [module, *(value for value in vars(module).values() if isinstance(value, type))]
        for holder in holders:
            for attribute, value in list(vars(holder).items()):
                if "Probe._wrap" in getattr(value, "__qualname__", ""):
                    left.append(f"{module_name}:{getattr(holder, '__name__', holder)}.{attribute}")
    return left


def test_probe_times_a_run_and_leaves_repro_unpatched(capsys) -> None:  # noqa: ANN001
    import repro.cli

    argv = ["run", "--scenario", "montage:size=12,seed=1", "--mode", "simulated", "--json"]
    assert repro.cli.main(argv) == 0
    untraced = json.loads(capsys.readouterr().out)
    originals = [(owner, attribute, vars(owner)[attribute]) for owner, attribute, _, _ in _targets()]

    probe = Probe().install()
    try:
        assert _probe_wrappers_left()
        assert repro.cli.main(argv) == 0
    finally:
        assert probe.uninstall() is True
    assert json.loads(capsys.readouterr().out) == untraced  # the probe never changes behaviour
    assert all(vars(owner)[attribute] is original for owner, attribute, original in originals)
    assert _probe_wrappers_left() == []

    calls = {name: stat[0] for name, stat in probe.stats.items()}
    assert calls["runtime.driver"] == calls["scenarios.build"] == calls["simkernel.loop"] == 1
    assert calls["agents.init"] == 12 and calls["hocl.reduce"] == calls["agents.stimulus"] > 12
    assert probe.counters["messaging.published"] == untraced["messages_published"]
    # self times partition the outermost spans: nothing is counted twice
    roots = sum(end - start for _, parent, _, start, end in probe.spans if parent is None)
    assert abs(sum(stat[1] for stat in probe.stats.values()) - roots) < 1e-6
