"""Live metrics: the run's telemetry, sampled over time.

:class:`~repro.obs.telemetry.RunTelemetry` answers "what were the
totals at the end of the run?"; this module answers "what were they
*over time*?" -- the live pipeline a production routing stack would
expose to Prometheus.  ``RunTelemetry`` stays the one owner of the
counters: every sample is one
:meth:`~repro.obs.telemetry.RunTelemetry.collect` sweep turned into a
plain ``{"t", "counters", "gauges", "histograms"}`` dict, and
:func:`to_prometheus` renders any such snapshot as text exposition.
Values come from simulation counters, never wall clocks, so same-seed
runs produce byte-identical snapshot streams.

**Naming.** *meters*, not *metrics*: ``repro.metrics`` is the paper's
subject (HN-SPF, D-SPF: the *link* metrics).  Meter names carry the
``repro_`` Prometheus prefix for the same reason.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.obs.telemetry import RunTelemetry
from repro.units import MEASUREMENT_INTERVAL_S

#: Default histogram buckets for link-utilization samples (fractions).
UTILIZATION_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: Default histogram buckets for propagation / convergence latencies
#: (seconds): control packets cross a trunk in milliseconds, a
#: network-wide flood settles in tenths of seconds to tens of seconds.
LATENCY_BUCKETS_S = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: ``RunTelemetry`` fields that are not counters: ``events_pending``
#: falls as the queue drains (a gauge); runs/wall are bookkeeping.
_NOT_COUNTERS = ("runs", "wall_s", "events_pending")

#: ``# HELP`` text of the gauges and histograms a snapshot carries;
#: counters are described by the telemetry field they come from.
_HELP = {
    "repro_sim_time_s": "Simulation time of this sample",
    "repro_events_pending": "Scheduler entries still pending",
    "repro_link_utilization": "Per-link 10 s busy-fraction samples",
}


class Histogram:
    """Fixed-bucket histogram (Prometheus model: cumulative buckets).

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the rest.  ``counts[i]`` is the
    *per-bucket* (non-cumulative) observation count; :meth:`snapshot`
    and the text exposition render the cumulative form.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> None:
        self.name = name
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must strictly increase: {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative-bucket form: ``{"buckets": [[le, n], ...], ...}``."""
        cumulative = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            cumulative.append([bound, running])
        return {
            "buckets": cumulative,
            "sum": self.sum,
            "count": self.count,
        }


def _fmt(value: float) -> str:
    """Render a float the shortest exact way (``1.0`` -> ``1``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus(snapshot: Dict[str, Any]) -> str:
    """One snapshot in the Prometheus text exposition format: gauges,
    counters, then histograms, each in snapshot order."""
    lines: List[str] = []
    for table, kind in (("gauges", "gauge"), ("counters", "counter"),
                        ("histograms", "histogram")):
        for name, value in snapshot[table].items():
            text = (
                f"RunTelemetry.{name[len('repro_'):]} running total"
                if kind == "counter" else _HELP.get(name)
            )
            if text:
                lines.append(f"# HELP {name} {text}")
            lines.append(f"# TYPE {name} {kind}")
            if kind != "histogram":
                lines.append(f"{name} {_fmt(value)}")
                continue
            for bound, running in value["buckets"]:
                lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {running}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {value["count"]}')
            lines.append(f"{name}_sum {_fmt(value['sum'])}")
            lines.append(f"{name}_count {value['count']}")
    return "\n".join(lines) + "\n"


class SimulationMeters:
    """The live metrics pipeline of one simulation run.

    Every measurement interval a DES timer turns one telemetry sweep
    into a snapshot, feeds new per-link utilization samples into a
    fixed-bucket histogram, and appends to the time-ordered stream.
    The callback only *reads* simulation state, so a metered run is
    bit-identical to an unmetered one (``tests/obs/test_meters.py``);
    with ``metrics=None`` nothing here is even allocated.

    ``spec`` is the ``ScenarioConfig.metrics`` value: ``"memory"``
    keeps snapshots in memory only; any other string is a path the
    snapshot stream is written to (JSONL, one snapshot per line) at the
    end of each :meth:`~repro.sim.network_sim.NetworkSimulation.run`.
    """

    def __init__(self, simulation, spec: str = "memory") -> None:
        self.simulation = simulation
        self.path = None if spec == "memory" else spec
        self.snapshots: List[Dict[str, Any]] = []
        self.samples_taken = 0
        self._utilization = Histogram(
            "repro_link_utilization", UTILIZATION_BUCKETS
        )
        #: Per-link cursor into the stats collector's utilization
        #: history (how many samples this pipeline has consumed).
        self._util_cursor: Dict[int, int] = {}
        # Periodic sampling rides the same timer wheel as measurement;
        # the callback is read-only, so it can never perturb the run.
        simulation.sim.timers.every(MEASUREMENT_INTERVAL_S, self.sample)

    # ------------------------------------------------------------------
    def sample(self) -> Dict[str, Any]:
        """Take one snapshot of the live counters (read-only)."""
        simulation = self.simulation
        values = RunTelemetry.collect(simulation).to_dict()
        for link_id, history in \
                simulation.stats.utilization_history.items():
            seen = self._util_cursor.get(link_id, 0)
            for _t, value in history[seen:]:
                self._utilization.observe(value)
            self._util_cursor[link_id] = len(history)
        snapshot = {
            "t": simulation.sim.now,
            "counters": {
                f"repro_{name}": float(value)
                for name, value in values.items()
                if name not in _NOT_COUNTERS
            },
            "gauges": {
                "repro_sim_time_s": simulation.sim.now,
                "repro_events_pending": float(values["events_pending"]),
            },
            "histograms": {
                self._utilization.name: self._utilization.snapshot(),
            },
        }
        self.snapshots.append(snapshot)
        self.samples_taken += 1
        return snapshot

    def finish(self) -> None:
        """End-of-run hook: final sample, then flush to disk if asked.

        Called by ``NetworkSimulation.run``; repeated runs re-flush the
        whole stream (the file always holds every snapshot so far).
        """
        self.sample()
        if self.path is not None:
            with open(self.path, "w") as handle:
                for snapshot in self.snapshots:
                    handle.write(json.dumps(snapshot))
                    handle.write("\n")

    def to_prometheus(self) -> str:
        """The latest snapshot in Prometheus text exposition."""
        return to_prometheus(self.snapshots[-1])


def counter_timeseries(
    snapshots: Iterable[Dict[str, Any]], name: str
) -> List[Tuple[float, float]]:
    """``(t, value)`` series of one counter/gauge across snapshots."""
    series = []
    for snapshot in snapshots:
        for table in ("counters", "gauges"):
            values = snapshot.get(table, {})
            if name in values:
                series.append((snapshot["t"], values[name]))
                break
    return series
