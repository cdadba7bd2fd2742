"""Command-line runner: ``python -m repro.experiments <id> [--fast]``.

``python -m repro.experiments all`` regenerates every table and figure
of the paper (slow: the DES experiments simulate many minutes of network
time); ``all-ext`` additionally runs the extension experiments.

The runner takes no observability flags: a run is configured through
its :class:`~repro.sim.network_sim.ScenarioConfig` alone, so a trace is
one run's ``ScenarioConfig.trace`` (``python -m repro simulate
--trace``), and every report carries its own telemetry block.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.experiments import EXPERIMENT_IDS, PAPER_IDS


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Regenerate ``args.experiment`` and print each rendered result."""
    if args.experiment == "all":
        ids = PAPER_IDS
    elif args.experiment == "all-ext":
        ids = EXPERIMENT_IDS
    else:
        ids = (args.experiment,)
    for experiment_id in ids:
        module = importlib.import_module(f"repro.experiments.{experiment_id}")
        started = time.time()
        result = module.run(fast=args.fast)
        elapsed = time.time() - started
        print(result.rendered)
        print(f"[{experiment_id} completed in {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
