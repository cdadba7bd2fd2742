"""Process-global observability defaults (the CLI surface's backbone).

The experiment harness (``python -m repro.experiments``) builds its
simulations deep inside experiment modules that know nothing about
tracing.  Rather than threading flags through every experiment, the
harness sets *process defaults* here; a
:class:`~repro.sim.network_sim.NetworkSimulation` whose config leaves
``trace`` unset consults :func:`next_trace_spec` once at construction,
and every finished run offers its telemetry to :func:`record_telemetry`.

Defaults are off (``None`` / disabled) unless a caller opts in, so the
zero-overhead guarantee holds: the only ambient cost is one module
attribute read per *simulation construction* -- never per event.  The
defaults are process-local by design; worker processes spawned by
:func:`~repro.sim.parallel.run_many` do not inherit them (give each
:class:`~repro.sim.parallel.RunSpec` its own trace file in its
:class:`~repro.sim.network_sim.ScenarioConfig` instead).
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.obs.telemetry import RunTelemetry

#: Directory new simulations write JSONL traces into (None = disabled).
_trace_dir: Optional[str] = None
#: Sequence number of the next trace file in ``_trace_dir``.
_trace_index: int = 0
#: Whether finished runs should register their telemetry here.
_telemetry_enabled: bool = False
#: Telemetry blocks registered since the last :func:`drain_telemetry`.
_telemetry: List[RunTelemetry] = []


def enable_trace_dir(path: str) -> None:
    """Give every subsequently built simulation a JSONL trace file.

    Files are named ``trace-0001.jsonl``, ``trace-0002.jsonl``, ... in
    construction order under ``path`` (created if missing).
    """
    global _trace_dir, _trace_index
    os.makedirs(path, exist_ok=True)
    _trace_dir = path
    _trace_index = 0


def next_trace_spec() -> Optional[str]:
    """The trace spec a new simulation should use, or ``None``."""
    global _trace_index
    if _trace_dir is None:
        return None
    _trace_index += 1
    return os.path.join(_trace_dir, f"trace-{_trace_index:04d}.jsonl")


def enable_telemetry_registry() -> None:
    """Start collecting every finished run's telemetry block."""
    global _telemetry_enabled
    _telemetry_enabled = True


def record_telemetry(telemetry: RunTelemetry) -> None:
    """Offer one run's telemetry to the registry (no-op when disabled)."""
    if _telemetry_enabled:
        _telemetry.append(telemetry)


def drain_telemetry() -> List[RunTelemetry]:
    """Return and clear the registered telemetry blocks."""
    global _telemetry
    drained, _telemetry = _telemetry, []
    return drained


def reset() -> None:
    """Restore the all-off defaults (used by tests and CLI teardown)."""
    global _trace_dir, _trace_index, _telemetry_enabled, _telemetry
    _trace_dir = None
    _trace_index = 0
    _telemetry_enabled = False
    _telemetry = []
