"""Render benchmark recordings as a GitHub step-summary markdown page.

Reads the committed/regenerated benchmark JSON records --
``BENCH_hotpath.json`` (the paper-scenario hot-path throughput run) and
``BENCH_scale.json`` (the scaling ladder with per-config counters and
the phase profile) -- and prints one markdown document: throughput and
speedup trajectories, per-scenario fast-path/flooding reductions, and
the per-phase wall-time attribution table.  CI appends the output to
``$GITHUB_STEP_SUMMARY``; locally it is just readable markdown:

    python benchmarks/summarize_bench.py [hotpath.json] [scale.json]

Missing files are skipped (each benchmark job regenerates only its own
record), so the script is safe to run from any job.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

PHASES = ["spf", "forwarding", "stats", "measurement", "scheduling"]


def _load(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def summarize_hotpath(record: dict) -> str:
    """The hot-path run: throughput plus speedup-vs-baseline ratios."""
    lines = ["### Hot-path benchmark", ""]
    scenario = record.get("scenario", {})
    lines.append(
        f"Scenario `{scenario.get('name', '?')}` "
        f"(seed {scenario.get('seed', '?')}, "
        f"{_fmt(scenario.get('duration_s'), 0)}s simulated): "
        f"**{_fmt(record.get('events_per_s'), 0)} events/s**, "
        f"{_fmt(record.get('wall_s'))}s wall, "
        f"{_fmt(record.get('spf_updates_per_s'), 0)} SPF updates/s."
    )
    speedup = record.get("speedup")
    if speedup:
        lines += [
            "",
            "| speedup vs committed baseline | ratio |",
            "|---|---|",
        ]
        for key in ("events_per_s_speedup",
                    "normalized_events_per_s_speedup",
                    "wall_speedup", "machine_drift"):
            if key in speedup:
                lines.append(
                    f"| {key.replace('_', ' ')} | "
                    f"{_fmt(speedup[key])}x |"
                )
    return "\n".join(lines)


def summarize_scale(record: dict) -> str:
    """The scaling ladder: per-scenario speedups, reductions, phases."""
    lines = ["### Scaling ladder", ""]
    headline = record.get("rand512_fast_path_speedup")
    if headline is not None:
        lines.append(
            f"rand512 fast-path speedup: **{_fmt(headline)}x** "
            f"(flood duplicate reduction "
            f"{_fmt(record.get('rand512_flood_reduction'))})"
        )
        lines.append("")
    scenarios = record.get("scenarios", [])
    if scenarios:
        lines += [
            "| scenario | nodes | links | fast-path (batched SPF) | "
            "dup reduction | update-pkt reduction |",
            "|---|---|---|---|---|---|",
        ]
        for scenario in scenarios:
            lines.append(
                f"| {scenario.get('name', '?')} "
                f"| {_fmt(scenario.get('nodes'))} "
                f"| {_fmt(scenario.get('links'))} "
                f"| {_fmt(scenario.get('fast_path_speedup'))}x "
                f"| {_fmt(scenario.get('flood_duplicate_reduction'))} "
                f"| {_fmt(scenario.get('flood_update_packet_reduction'))} |"
            )
        lines.append("")
    phase_rows = []
    for scenario in scenarios:
        profile = scenario.get("phase_profile")
        if not profile:
            continue
        wall = profile.get("wall_s") or 0.0
        cells = []
        for phase in PHASES:
            seconds = profile.get("phases", {}).get(phase, 0.0)
            share = seconds / wall * 100 if wall else 0.0
            cells.append(f"{seconds:.2f}s ({share:.0f}%)")
        phase_rows.append(
            f"| {scenario.get('name', '?')} | {wall:.2f} | "
            + " | ".join(cells) + " |"
        )
    if phase_rows:
        lines += [
            "### Fast-path wall-time attribution",
            "",
            "| scenario | wall (s) | " + " | ".join(PHASES) + " |",
            "|---" * (len(PHASES) + 2) + "|",
        ]
        lines += phase_rows
    return "\n".join(lines)


def main(argv) -> int:
    hotpath_path = argv[1] if len(argv) > 1 else "BENCH_hotpath.json"
    scale_path = argv[2] if len(argv) > 2 else "BENCH_scale.json"
    sections = []
    hotpath = _load(hotpath_path)
    if hotpath is not None:
        sections.append(summarize_hotpath(hotpath))
    scale = _load(scale_path)
    if scale is not None:
        sections.append(summarize_scale(scale))
    if not sections:
        print(f"no benchmark records found ({hotpath_path}, {scale_path})")
        return 0
    print("\n\n".join(sections))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
