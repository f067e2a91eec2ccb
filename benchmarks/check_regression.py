#!/usr/bin/env python
"""CI regression gate for the HOCL reduction benchmarks.

Re-runs a set of scaled-down scenarios (default: ``montage-100-centralized``
plus the two scenario-catalog families, ``cybershake-200-centralized`` and
``sipht-200-centralized``) with the incremental engine and compares each
against the committed ``BENCH_reduction.json``:

* ``match_attempts`` must be **exactly** the committed value — the search is
  deterministic, so any drift is a real behavioural change, machine speed
  notwithstanding;
* ``wall_seconds`` (best of ``--runs`` repetitions) must not exceed the
  committed value by more than the tolerance (default 20%), after
  *calibration*: the naive engine runs the same scenario in the same
  process, and the committed incremental budget is scaled by the measured
  naive wall over the committed naive wall.  A runner that is uniformly
  2× slower doubles both sides, so only a real slowdown of the incremental
  engine relative to the committed artifact trips the gate;
* **batched parity** — the ``batch`` strategy must reach the same final
  solution (content hash) with the same reaction multiset (``rule_fires``)
  as the serial engine, and its ``match_attempts`` must not exceed the
  serial-incremental count on any gated scenario (batching may only shrink
  the match work, never add to it).  When the committed artifact carries
  per-mode rows (schema 3+), the batch wall is gated against its committed
  value under the same calibration and tolerance;
* **rewrite-seconds drift** — when the committed batch row carries a timing
  split (schema 3+), the time the batch run spends rewriting
  (``rewrite`` + ``patch`` seconds — rebuild expansion plus in-place delta
  application) must not exceed the committed split under the same
  calibration, tolerance and slack.  This catches the failure the wall gate
  can absorb: a rule silently losing its delta form falls back to the
  quadratic rebuild path, which on a scaled-down scenario moves the rewrite
  share far more than the total wall.

* **scaling exponent** — under ``GINFLOW_FULL``, the least-squares exponent
  of the serial wall over the centralised Montage at 100/500/1000/2000 tasks
  is measured and must stay <= 1.4 (1.0 would mean the cost of a reaction
  does not depend on the size of its level).  A ratio of walls taken in one
  process: no calibration.  The quick profile prints the committed value.

Gating several structurally distinct scenarios means a data-layer change
that only bites wide fan-ins (cybershake) or fragmented independent regions
(sipht) fails the PR even when the montage chain is unaffected.

Exit status is non-zero on any regression, so the CI benchmarks job fails
the PR.  ``GINFLOW_BENCH_TOLERANCE`` widens the margin for especially noisy
hardware.

Usage::

    python benchmarks/check_regression.py [--scenario NAME ...] [--runs N]

Environment:
    GINFLOW_BENCH_SCENARIO    comma-separated scenario list overriding --scenario
    GINFLOW_BENCH_TOLERANCE   relative wall-clock tolerance (default 0.20)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_bench_reduction import (  # noqa: E402
    _ARTIFACT,
    _full_profile,
    measure_scaling,
    naive_calibration,
    reduce_scenario,
    reduce_scenario_mode,
)

#: Ceiling of ``scaling.montage_serial_exponent`` in the full profile.
MAX_SCALING_EXPONENT = 1.4

#: Scenarios gated by default: the montage chain plus one wide-fan-in and one
#: fragmented-fan-in family from the scenario catalog.
DEFAULT_SCENARIOS = (
    "montage-100-centralized",
    "cybershake-200-centralized",
    "sipht-200-centralized",
)


def check_scenario(scenario: str, baseline: dict, runs: int, tolerance: float, slack: float) -> bool:
    """Gate one scenario against its committed row; returns True on pass."""
    incremental_baseline = baseline["incremental"]
    naive_baseline = baseline["naive"]

    best_wall = None
    best_naive_wall = None
    attempts = None
    serial_report = None
    serial_solution = None
    for _ in range(max(1, runs)):
        serial_report, wall, serial_solution = reduce_scenario_mode(scenario, "serial")
        attempts = serial_report.match_attempts
        best_wall = wall if best_wall is None else min(best_wall, wall)
        _naive_report, naive_wall = reduce_scenario(scenario, incremental=False)
        best_naive_wall = (
            naive_wall if best_naive_wall is None else min(best_naive_wall, naive_wall)
        )

    passed = True
    if attempts != incremental_baseline["match_attempts"]:
        print(
            f"FAIL {scenario}: match_attempts {attempts} != committed "
            f"{incremental_baseline['match_attempts']} (deterministic counter changed)"
        )
        passed = False
    # calibrate the committed budget to this machine: the naive engine run
    # here over the committed naive wall measures how fast this hardware is
    calibration = naive_calibration(best_naive_wall, naive_baseline["wall_seconds"])
    budget = incremental_baseline["wall_seconds"] * calibration * (1.0 + tolerance) + max(0.0, slack)
    if best_wall > budget:
        print(
            f"FAIL {scenario}: wall {best_wall:.3f}s exceeds the committed "
            f"{incremental_baseline['wall_seconds']}s by more than {tolerance:.0%} after "
            f"calibration x{calibration:.2f} + {slack}s slack "
            f"(budget {budget:.3f}s)"
        )
        passed = False
    if passed:
        print(
            f"OK {scenario}: wall {best_wall:.3f}s (committed "
            f"{incremental_baseline['wall_seconds']}s, calibration x{calibration:.2f}, "
            f"budget {budget:.3f}s), match_attempts {attempts} (unchanged)"
        )

    # -------------------------------------------------- batched-strategy gate
    batch_report, batch_wall, batch_solution = reduce_scenario_mode(scenario, "batch")
    if batch_solution.content_hash() != serial_solution.content_hash():
        print(f"FAIL {scenario}: batch strategy reached a different final solution than serial")
        passed = False
    if batch_report.rule_fires != serial_report.rule_fires:
        print(f"FAIL {scenario}: batch strategy's reaction multiset diverged from serial")
        passed = False
    if batch_report.match_attempts > attempts:
        print(
            f"FAIL {scenario}: batched match_attempts {batch_report.match_attempts} exceed "
            f"serial-incremental {attempts} (batching must only shrink match work)"
        )
        passed = False
    batch_baseline = baseline.get("modes", {}).get("batch")
    if batch_baseline is not None:
        batch_budget = batch_baseline["wall_seconds"] * calibration * (1.0 + tolerance) + max(0.0, slack)
        if batch_wall > batch_budget:
            print(
                f"FAIL {scenario}: batch wall {batch_wall:.3f}s exceeds the committed "
                f"{batch_baseline['wall_seconds']}s by more than {tolerance:.0%} after "
                f"calibration x{calibration:.2f} + {slack}s slack (budget {batch_budget:.3f}s)"
            )
            passed = False
        committed_timings = batch_baseline.get("timings")
        if committed_timings is not None:
            # rewrite-seconds drift gate: rebuild expansion + delta patching
            # must stay within the committed split — a rule losing its delta
            # form shows up here long before it moves the total wall.
            committed_rewrite = committed_timings.get("rewrite", 0.0) + committed_timings.get("patch", 0.0)
            measured_rewrite = batch_report.timings.get("rewrite", 0.0) + batch_report.timings.get("patch", 0.0)
            rewrite_budget = committed_rewrite * calibration * (1.0 + tolerance) + max(0.0, slack)
            if measured_rewrite > rewrite_budget:
                print(
                    f"FAIL {scenario}: batch rewrite+patch seconds {measured_rewrite:.3f}s "
                    f"exceed the committed {committed_rewrite:.3f}s by more than "
                    f"{tolerance:.0%} after calibration x{calibration:.2f} + {slack}s "
                    f"slack (budget {rewrite_budget:.3f}s) — did a rule lose its delta form?"
                )
                passed = False
    if passed:
        print(
            f"OK {scenario}: batch parity holds — wall {batch_wall:.3f}s, "
            f"match_attempts {batch_report.match_attempts} <= serial {attempts}, "
            f"batches {batch_report.batches}"
        )
    return passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="scenario name present in the committed BENCH_reduction.json "
        f"(repeatable; default: {', '.join(DEFAULT_SCENARIOS)})",
    )
    parser.add_argument(
        "--runs", type=int, default=5, help="repetitions; the best wall time is compared"
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.1,
        help="absolute seconds added to the budget (absorbs scheduler noise on "
        "sub-second scenarios; a real regression of the scaled scenario is "
        "a multiple of this)",
    )
    args = parser.parse_args()
    tolerance = float(os.environ.get("GINFLOW_BENCH_TOLERANCE", "0.20"))
    env_scenarios = os.environ.get("GINFLOW_BENCH_SCENARIO")
    if args.scenario:  # an explicit flag always wins over the environment
        scenarios = list(args.scenario)
    elif env_scenarios:
        scenarios = [name.strip() for name in env_scenarios.split(",") if name.strip()]
    else:
        scenarios = list(DEFAULT_SCENARIOS)

    if not _ARTIFACT.exists():
        print(f"no committed {_ARTIFACT.name}; nothing to compare against")
        return 1
    committed = json.loads(_ARTIFACT.read_text())
    committed_scenarios = committed.get("scenarios", {})

    failed = False
    for scenario in scenarios:
        if scenario not in committed_scenarios:
            print(f"scenario {scenario!r} not in committed {_ARTIFACT.name}")
            failed = True
            continue
        if not check_scenario(
            scenario, committed_scenarios[scenario], args.runs, tolerance, args.slack
        ):
            failed = True

    # The quick profile leaves the scaling rows to the suite (it writes them
    # to BENCH_reduction.latest.json); only the full profile measures and gates.
    committed_exponent = committed.get("scaling", {}).get("montage_serial_exponent", "-")
    if _full_profile():
        scaling = measure_scaling(full=True)
        exponent = scaling["montage_serial_exponent"]
        detail = (
            f"montage serial exponent {exponent} over {scaling['tasks']} tasks "
            f"({scaling['us_per_reaction']} us/reaction; committed {committed_exponent})"
        )
        if exponent > MAX_SCALING_EXPONENT:
            print(f"FAIL scaling: {detail} exceeds {MAX_SCALING_EXPONENT}")
            failed = True
        else:
            print(f"OK scaling: {detail}")
    else:
        print(
            f"SKIP scaling: committed montage serial exponent {committed_exponent} "
            f"(measured and gated <= {MAX_SCALING_EXPONENT} under GINFLOW_FULL)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
