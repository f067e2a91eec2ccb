#!/usr/bin/env python
"""Collate per-commit reduction benchmark artifacts into a trend table.

The CI benchmarks job stamps every build's numbers as
``BENCH_reduction-<sha>.json`` (the committed ``BENCH_reduction.json``
schema, one SHA-named copy per build).  The regression gate only catches
jumps above its tolerance; slow drift *inside* the tolerance compounds
silently across PRs.  This script folds any number of downloaded artifacts
into one per-scenario trend table so that drift becomes visible:

* one row per (commit, scenario): reactions, match_attempts and wall
  seconds of the one reduction loop (schema 8 on; older
  artifacts contribute their ``serial`` row), plus the naive wall and the
  wall-clock speedup over it;
* a ``drift`` column: the wall relative to the *first* (oldest) collated
  commit of that scenario — the number the per-PR gate cannot see;
* commits are ordered by artifact modification time (artifact downloads
  preserve upload order); ``--order name`` sorts by SHA instead;
* below the table, one line per artifact that carries a ``scaling`` object
  (schema 5): the least-squares exponent of the serial Montage wall over its
  size, and the microseconds per reaction at each size (and from schema 9 the
  same for the centralised SIPHT).

Usage::

    python benchmarks/collate_trend.py artifacts/           # a directory
    python benchmarks/collate_trend.py BENCH_reduction-*.json
    python benchmarks/collate_trend.py artifacts/ --scenario montage-100-centralized
    python benchmarks/collate_trend.py artifacts/ --csv trend.csv --json-out trend.json
    python benchmarks/collate_trend.py artifacts/ --plot trend.svg

``--plot`` renders the trend as a dependency-free SVG: the wall seconds of
every collated scenario across commits — the drift the per-PR gate tolerance
cannot see, as a picture.

Exit status: 0 when at least one artifact was collated, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path
from typing import Any, Iterator

#: SHA-stamped artifact names produced by CI (``BENCH_reduction-<sha>.json``);
#: the unstamped committed baseline is labelled ``committed``.
_STAMPED = re.compile(r"^BENCH_reduction-(?P<sha>[0-9a-fA-F]{7,40})\.json$")

#: Columns of the trend table, in display order.
_COLUMNS = (
    "commit",
    "scenario",
    "reactions",
    "match_attempts",
    "wall_seconds",
    "naive_wall_seconds",
    "speedup",
    "drift",
)


def _label(path: Path) -> str:
    """Short commit label for one artifact file."""
    match = _STAMPED.match(path.name)
    if match:
        return match.group("sha")[:12]
    if path.name == "BENCH_reduction.latest.json":
        return "latest"
    return "committed" if path.name == "BENCH_reduction.json" else path.stem


def discover(paths: list[Path]) -> list[Path]:
    """Every artifact file under ``paths`` (files or directories)."""
    found: list[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(sorted(path.rglob("BENCH_reduction*.json")))
        elif path.is_file():
            found.append(path)
        else:
            print(f"warning: {path} does not exist; skipping", file=sys.stderr)
    # de-duplicate while keeping order (a dir glob can re-match an explicit file)
    unique: dict[Path, None] = {}
    for path in found:
        unique.setdefault(path.resolve(), None)
    return list(unique)


def load_rows(path: Path) -> Iterator[dict[str, Any]]:
    """The per-scenario rows of one artifact (empty on unreadable files)."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: cannot read {path}: {exc}; skipping", file=sys.stderr)
        return
    if payload.get("benchmark") != "hocl-reduction":
        print(f"warning: {path} is not a reduction artifact; skipping", file=sys.stderr)
        return
    for scenario, row in sorted(payload.get("scenarios", {}).items()):
        # schemas 3-7 measured several reduction strategies: their serial row is this loop's
        measured = row if "wall_seconds" in row else (row.get("modes") or {}).get("serial") or row.get("incremental", {})
        yield {
            "commit": _label(path),
            "scenario": scenario,
            "reactions": row.get("reactions"),
            "match_attempts": measured.get("match_attempts"),
            "wall_seconds": measured.get("wall_seconds"),
            "naive_wall_seconds": row.get("naive", {}).get("wall_seconds"),
            "speedup": row.get("speedup", {}).get("wall_clock"),
        }


def scaling_lines(files: list[Path]) -> list[str]:
    """One ``scaling`` line per artifact that states its scaling exponent."""
    lines = []
    for path in files:
        try:
            scaling = json.loads(path.read_text()).get("scaling")
        except (OSError, json.JSONDecodeError, AttributeError):
            continue
        if scaling:
            sipht = scaling.get("sipht")  # schema 9 on
            lines.append(
                f"scaling {_label(path)}: montage serial exponent "
                f"{scaling.get('montage_serial_exponent')} over {scaling.get('tasks')} tasks, "
                f"{scaling.get('us_per_reaction')} us/reaction"
                + (f"; sipht central exponent {scaling.get('sipht_central_exponent')} over {sipht['tasks']} "
                   f"tasks, {sipht['us_per_reaction']} us/reaction" if sipht else "")
            )
    return lines


def collate(files: list[Path], scenarios: list[str] | None) -> list[dict[str, Any]]:
    """All rows across ``files``, with the cross-commit drift column filled."""
    rows = [row for path in files for row in load_rows(path) if not scenarios or row["scenario"] in scenarios]
    first_wall: dict[str, float] = {}
    for row in rows:
        wall = row["wall_seconds"]
        if wall is None:
            row["drift"] = None
            continue
        base = first_wall.setdefault(row["scenario"], wall)
        row["drift"] = round((wall - base) / base, 3) if base else None
    return rows


def format_table(rows: list[dict[str, Any]]) -> str:
    """Fixed-width text table of the trend rows."""

    def cell(row: dict[str, Any], column: str) -> str:
        value = row.get(column)
        if value is None:
            return "-"
        if column == "drift":
            return f"{value:+.1%}"
        return str(value)

    table = [list(_COLUMNS)] + [[cell(row, column) for column in _COLUMNS] for row in rows]
    widths = [max(len(line[index]) for line in table) for index in range(len(_COLUMNS))]
    lines = ["  ".join(value.ljust(width) for value, width in zip(line, widths)).rstrip() for line in table]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


# ------------------------------------------------------------------ plotting
#: Line colors cycled across scenario series.
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#e377c2", "#7f7f7f", "#bcbd22")


def _series(rows: list[dict[str, Any]]) -> tuple[list[str], dict[str, dict[str, dict[str, Any]]]]:
    """Commit order plus one ``{commit: row}`` map per scenario."""
    commits: list[str] = []
    groups: dict[str, dict[str, dict[str, Any]]] = {}
    for row in rows:
        if row["commit"] not in commits:
            commits.append(row["commit"])
        if row["wall_seconds"] is not None:
            groups.setdefault(row["scenario"], {})[row["commit"]] = row
    return commits, groups


def _panel(
    parts: list[str],
    title: str,
    lines: list[tuple[str, str, list[tuple[int, float]]]],
    commits: list[str],
    top: float,
) -> None:
    """One plot panel: polylines of (label, color, [(commit_index, value)])."""
    left, width, height = 60.0, 640.0, 170.0
    bottom = top + height
    peak = max((value for _, _, points in lines for _, value in points), default=0.0)
    peak = peak or 1.0
    step = width / max(1, len(commits) - 1)

    def x(index: int) -> float:
        return left + (index * step if len(commits) > 1 else width / 2)

    def y(value: float) -> float:
        return bottom - value / peak * (height - 10.0)

    parts.append(f'<text x="{left}" y="{top - 8}" class="title">{title}</text>')
    parts.append(
        f'<line x1="{left}" y1="{bottom}" x2="{left + width}" y2="{bottom}" class="axis"/>'
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" class="axis"/>'
    )
    parts.append(f'<text x="{left - 6}" y="{top + 10}" class="tick" text-anchor="end">{peak:.3g}s</text>')
    parts.append(f'<text x="{left - 6}" y="{bottom}" class="tick" text-anchor="end">0</text>')
    for index, commit in enumerate(commits):
        parts.append(
            f'<text x="{x(index):.1f}" y="{bottom + 14}" class="tick" text-anchor="middle">{commit[:7]}</text>'
        )
    legend_y = top
    for label, color, points in lines:
        coords = " ".join(f"{x(i):.1f},{y(v):.1f}" for i, v in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for i, v in points:
            parts.append(f'<circle cx="{x(i):.1f}" cy="{y(v):.1f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<rect x="{left + width + 16}" y="{legend_y}" width="10" height="10" fill="{color}"/>'
            f'<text x="{left + width + 30}" y="{legend_y + 9}" class="tick">{label}</text>'
        )
        legend_y += 16


def render_plot(rows: list[dict[str, Any]], path: Path) -> None:
    """Write the trend rows as an SVG: the wall of every scenario across commits."""
    commits, groups = _series(rows)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="920" height="260" '
        'viewBox="0 0 920 260" font-family="sans-serif">',
        "<style>.title{font-size:13px;font-weight:bold}.tick{font-size:10px;fill:#444}"
        ".axis{stroke:#999;stroke-width:1}</style>",
        '<rect width="920" height="260" fill="white"/>',
    ]
    wall_lines = []
    for index, (scenario, series) in enumerate(sorted(groups.items())):
        points = [(i, series[commit]["wall_seconds"]) for i, commit in enumerate(commits) if commit in series]
        wall_lines.append((scenario, _PALETTE[index % len(_PALETTE)], points))
    _panel(parts, "reduction wall seconds per commit", wall_lines, commits, top=40.0)
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "paths",
        nargs="+",
        type=Path,
        help="artifact files, or directories searched recursively for BENCH_reduction*.json",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="only collate this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--order",
        choices=["mtime", "name"],
        default="mtime",
        help="commit ordering: artifact modification time (default) or file name",
    )
    parser.add_argument("--csv", metavar="PATH", help="also write the rows as CSV")
    parser.add_argument("--json-out", metavar="PATH", help="also write the rows as JSON")
    parser.add_argument(
        "--plot",
        metavar="PATH",
        help="also render the trend as an SVG (wall per scenario)",
    )
    args = parser.parse_args(argv)

    files = discover(args.paths)
    if args.order == "mtime":
        files.sort(key=lambda path: path.stat().st_mtime)
    else:
        files.sort(key=lambda path: path.name)
    rows = collate(files, args.scenario)
    if not rows:
        print("no artifact rows collated", file=sys.stderr)
        return 1

    print(format_table(rows))
    for line in scaling_lines(files):
        print(line)
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(_COLUMNS))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps({"trend": rows}, indent=2) + "\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.plot:
        render_plot(rows, Path(args.plot))
        print(f"wrote {args.plot}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
