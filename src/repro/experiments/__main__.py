"""Command-line runner: ``python -m repro.experiments <id> [--fast]``.

``python -m repro.experiments all`` regenerates every table and figure
of the paper (slow: the DES experiments simulate many minutes of network
time); ``all-ext`` additionally runs the extension experiments.

Observability (``docs/observability.md``): ``--trace DIR`` makes every
simulation the experiments build write a JSONL event trace under
``DIR``; ``--telemetry`` prints a merged hot-path counter block for all
runs after each experiment.  Both work through process-global defaults
(:mod:`repro.obs.runtime`), so the experiment modules stay untouched --
note the in-process serial path only; runs fanned out to worker
processes by ``run_many`` do not inherit the defaults.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.experiments import EXPERIMENT_IDS, PAPER_IDS
from repro.obs import runtime as obs_runtime
from repro.obs.telemetry import merge_telemetry


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The runner's arguments (shared with ``python -m repro experiment``)."""
    parser.add_argument(
        "experiment",
        choices=(*EXPERIMENT_IDS, "all", "all-ext"),
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced durations/grids (same shapes, less waiting)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="write one JSONL event trace per simulation into DIR",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="print merged hot-path counters after each experiment",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Regenerate ``args.experiment`` and print each rendered result."""
    if args.trace:
        obs_runtime.enable_trace_dir(args.trace)
    if args.telemetry:
        obs_runtime.enable_telemetry_registry()

    if args.experiment == "all":
        ids = PAPER_IDS
    elif args.experiment == "all-ext":
        ids = EXPERIMENT_IDS
    else:
        ids = (args.experiment,)
    try:
        for experiment_id in ids:
            module = importlib.import_module(
                f"repro.experiments.{experiment_id}"
            )
            started = time.time()
            result = module.run(fast=args.fast)
            elapsed = time.time() - started
            print(result.rendered)
            print(f"[{experiment_id} completed in {elapsed:.1f}s]")
            if args.telemetry:
                _print_telemetry(experiment_id)
            print()
    finally:
        if args.trace or args.telemetry:
            obs_runtime.reset()
    return 0


def _print_telemetry(experiment_id: str) -> None:
    merged = merge_telemetry(obs_runtime.drain_telemetry())
    if merged is None:
        print(f"[{experiment_id}: no in-process runs recorded telemetry]")
        return
    from repro.report import ascii_table

    print(ascii_table(
        ["counter", "value"], list(merged.to_dict().items()),
        title=f"{experiment_id}: merged telemetry ({merged.runs} runs)",
    ))


if __name__ == "__main__":
    sys.exit(main())
