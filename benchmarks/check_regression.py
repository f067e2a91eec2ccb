#!/usr/bin/env python
"""CI regression gate for the HOCL reduction benchmarks.

Two gates:

* **no row regresses against its own committed value** — each gated scenario
  (default: ``montage-100-centralized`` plus the two scenario-catalog
  families, ``cybershake-200-centralized`` and ``sipht-200-centralized``) is
  re-measured ``--runs`` times (the best wall counts) and held to its row of
  the committed ``BENCH_reduction.json`` by
  :func:`test_bench_reduction.row_regressions`: ``reactions`` and
  ``match_attempts`` exactly (the search is deterministic, so any drift is a
  real behavioural change), the wall within the tolerance
  (default 20 %) after *calibration* — the naive walk runs the same scenario
  in the same process, and the committed wall is scaled by the measured over
  the committed naive wall, so a uniformly slower runner moves both sides;
* **scaling exponents** — under ``GINFLOW_FULL``, the least-squares exponent
  of the wall over the centralised Montage at 100/500/1000/2000 tasks and over
  the centralised SIPHT at 1000/2000/4000 tasks are measured and must stay
  <= 1.2 (1.0 would mean the cost of a reaction does not depend on the size of
  its level).  A ratio of walls taken in one process: no calibration.  The
  quick profile prints the committed values.

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
import os
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parent.parent / "tests")]

from test_bench_reduction import (  # noqa: E402
    _ARTIFACT,
    _full_profile,
    committed_artifact,
    measure,
    measure_scaling,
    row_regressions,
)

#: Ceiling of ``scaling.montage_serial_exponent`` in the full profile.
MAX_SCALING_EXPONENT = 1.2

#: Scenarios gated by default: the montage chain plus one wide-fan-in and one
#: fragmented-fan-in family from the scenario catalog.
DEFAULT_SCENARIOS = (
    "montage-100-centralized",
    "cybershake-200-centralized",
    "sipht-200-centralized",
)


def check_scenario(scenario: str, committed: dict, runs: int, tolerance: float, slack: float) -> bool:
    """Gate one scenario against its committed row; returns True on pass."""
    rows = [measure(scenario) for _ in range(max(1, runs))]
    best = min(rows, key=lambda row: row["wall_seconds"])
    # the best wall against the best naive wall: the calibration sees the same quiet moment
    best = {**best, "naive": min((row["naive"] for row in rows), key=lambda naive: naive["wall_seconds"])}
    problems = row_regressions(best, committed, tolerance, slack)
    for problem in problems:
        print(f"FAIL {scenario}: {problem}")
    if not problems:
        print(
            f"OK {scenario}: wall {best['wall_seconds']:.3f}s (committed {committed['wall_seconds']}s, "
            f"naive {best['naive']['wall_seconds']:.3f}s vs {committed['naive']['wall_seconds']}s), "
            f"reactions {best['reactions']}, match_attempts {best['match_attempts']} (unchanged)"
        )
    return not problems


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

    committed = committed_artifact()
    if not committed:
        print(f"no committed {_ARTIFACT.name}; nothing to compare against")
        return 1
    committed_scenarios = committed.get("scenarios", {})

    failed = False
    for scenario in scenarios:
        if "wall_seconds" not in committed_scenarios.get(scenario, {}):
            print(f"scenario {scenario!r} has no schema-8 (or later) row in the committed {_ARTIFACT.name}")
            failed = True
            continue
        if not check_scenario(scenario, committed_scenarios[scenario], args.runs, tolerance, args.slack):
            failed = True

    # The quick profile leaves the scaling rows to the suite (it writes them
    # to BENCH_reduction.latest.json); only the full profile measures and gates.
    committed_scaling = committed.get("scaling", {})
    axes = (("montage serial", "montage_serial_exponent", None), ("sipht central", "sipht_central_exponent", "sipht"))
    if _full_profile():
        scaling = measure_scaling(full=True)
        for label, key, block in axes:
            row = scaling[block] if block else scaling
            detail = (
                f"{label} exponent {scaling[key]} over {row['tasks']} tasks "
                f"({row['us_per_reaction']} us/reaction; committed {committed_scaling.get(key, '-')})"
            )
            if scaling[key] > MAX_SCALING_EXPONENT:
                print(f"FAIL scaling: {detail} exceeds {MAX_SCALING_EXPONENT}")
                failed = True
            else:
                print(f"OK scaling: {detail}")
    else:
        for label, key, _block in axes:
            print(
                f"SKIP scaling: committed {label} exponent {committed_scaling.get(key, '-')} "
                f"(measured and gated <= {MAX_SCALING_EXPONENT} under GINFLOW_FULL)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
