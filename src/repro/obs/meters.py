"""Live metrics: a deterministic counter/gauge/histogram registry.

The telemetry block (:mod:`repro.obs.telemetry`) answers "what were the
totals at the end of the run?"; the meters layer answers "what were they
*over time*?" -- the live pipeline a production routing stack would
expose to Prometheus.  Three meter types:

* :class:`Counter` -- a monotonically non-decreasing total,
* :class:`Gauge` -- a point-in-time value,
* :class:`Histogram` -- fixed, declared-up-front buckets (cumulative
  counts plus sum and count, the Prometheus histogram model).

A :class:`MeterRegistry` owns named meters in insertion order, snapshots
them into JSON-ready dicts, and renders the Prometheus text exposition
format.  Everything is deterministic: values come from simulation
counters, never from wall clocks, so two same-seed runs produce
byte-identical snapshot streams.

**Naming.** The registry lives in ``repro.obs.meters`` -- *meters*, not
*metrics* -- because ``repro.metrics`` is already taken by the paper's
subject matter (HN-SPF, D-SPF: the *link* metrics).  Meter names use
the ``repro_`` Prometheus prefix for the same reason.

:class:`SimulationMeters` is the pipeline: attached to a
:class:`~repro.sim.network_sim.NetworkSimulation` via
``ScenarioConfig(metrics=...)``, it samples the run's counters every
measurement interval on a DES timer whose callback only *reads*
simulation state -- a metered run stays bit-identical to an unmetered
one, and with ``metrics=None`` nothing here is even allocated.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Prometheus metric-name grammar (we exclude ``:`` -- reserved for
#: recording rules).
_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for link-utilization samples (fractions).
UTILIZATION_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: Default histogram buckets for propagation / convergence latencies
#: (seconds): control packets cross a trunk in milliseconds, a
#: network-wide flood settles in tenths of seconds to tens of seconds.
LATENCY_BUCKETS_S = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid meter name {name!r}")
    return name


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        self.value += amount

    def set_total(self, total: float) -> None:
        """Overwrite with an externally maintained running total.

        The sampler mirrors counters the simulator's subsystems already
        keep; those arrive as absolute totals, not increments.  The
        monotonicity contract still holds -- totals never decrease.
        """
        if total < self.value:
            raise ValueError(
                f"counter {self.name} would decrease: "
                f"{self.value} -> {total}"
            )
        self.value = total


class Gauge:
    """A point-in-time value (may move either way)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


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
        self.name = _check_name(name)
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


class MeterRegistry:
    """Named meters, deterministic (insertion) order."""

    def __init__(self) -> None:
        self._meters: Dict[str, object] = {}

    def _register(self, meter):
        existing = self._meters.get(meter.name)
        if existing is not None:
            if type(existing) is not type(meter):
                raise ValueError(
                    f"meter {meter.name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        self._meters[meter.name] = meter
        return meter

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help))

    def histogram(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> Histogram:
        return self._register(Histogram(name, buckets, help))

    def __len__(self) -> int:
        return len(self._meters)

    def __iter__(self):
        return iter(self._meters.values())

    def snapshot(self, t: float) -> Dict[str, Any]:
        """One JSON-ready sample of every meter at simulation time ``t``."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for meter in self._meters.values():
            if isinstance(meter, Counter):
                counters[meter.name] = meter.value
            elif isinstance(meter, Gauge):
                gauges[meter.name] = meter.value
            else:
                histograms[meter.name] = meter.snapshot()
        return {
            "t": t,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for meter in self._meters.values():
            if meter.help:
                lines.append(f"# HELP {meter.name} {meter.help}")
            if isinstance(meter, Counter):
                lines.append(f"# TYPE {meter.name} counter")
                lines.append(f"{meter.name} {_fmt(meter.value)}")
            elif isinstance(meter, Gauge):
                lines.append(f"# TYPE {meter.name} gauge")
                lines.append(f"{meter.name} {_fmt(meter.value)}")
            else:
                lines.append(f"# TYPE {meter.name} histogram")
                running = 0
                for bound, count in zip(meter.buckets, meter.counts):
                    running += count
                    lines.append(
                        f'{meter.name}_bucket{{le="{_fmt(bound)}"}} '
                        f"{running}"
                    )
                lines.append(
                    f'{meter.name}_bucket{{le="+Inf"}} {meter.count}'
                )
                lines.append(f"{meter.name}_sum {_fmt(meter.sum)}")
                lines.append(f"{meter.name}_count {meter.count}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Render a float the shortest exact way (``1.0`` -> ``1``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_snapshots_jsonl(
    path: str, snapshots: Iterable[Dict[str, Any]]
) -> str:
    """Write one snapshot dict per line (the trace-sink convention)."""
    with open(path, "w") as handle:
        for snapshot in snapshots:
            handle.write(json.dumps(snapshot))
            handle.write("\n")
    return path


def read_snapshots_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a snapshot stream written by :func:`write_snapshots_jsonl`."""
    snapshots = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                snapshots.append(json.loads(line))
    return snapshots


class SimulationMeters:
    """The live metrics pipeline of one simulation run.

    Mirrors the :class:`~repro.obs.telemetry.RunTelemetry` counters into
    a :class:`MeterRegistry` on a periodic DES timer (every measurement
    interval by default), feeds per-link utilization samples into a
    fixed-bucket histogram, and keeps the time-ordered snapshot stream.
    The sampler callback only *reads* simulation state, so a metered
    run's trajectory is bit-identical to an unmetered one (pinned by
    ``tests/obs/test_meters.py``).

    ``spec`` is the ``ScenarioConfig.metrics`` value: ``"memory"``
    keeps snapshots in memory only; any other string is a path the
    snapshot stream is written to (JSONL, one snapshot per line) at the
    end of each :meth:`~repro.sim.network_sim.NetworkSimulation.run`.
    """

    def __init__(
        self,
        simulation,
        spec: str = "memory",
        interval_s: Optional[float] = None,
    ) -> None:
        self.simulation = simulation
        self.spec = spec
        self.path: Optional[str] = None if spec == "memory" else spec
        self.registry = MeterRegistry()
        self.snapshots: List[Dict[str, Any]] = []
        self.samples_taken = 0
        self.interval_s = (
            interval_s
            if interval_s is not None
            else simulation.config.measurement_interval_s
        )
        if self.interval_s <= 0:
            raise ValueError(
                f"metrics interval must be positive: {self.interval_s}"
            )

        registry = self.registry
        self._sim_time = registry.gauge(
            "repro_sim_time_s", "Simulation time of this sample"
        )
        self._events_pending = registry.gauge(
            "repro_events_pending", "Scheduler entries still pending"
        )
        #: Counter meters mirroring the telemetry block, keyed by the
        #: telemetry field they mirror (deterministic field order).
        self._telemetry_counters: Dict[str, Counter] = {}
        from dataclasses import fields

        from repro.obs.telemetry import RunTelemetry

        for field in fields(RunTelemetry):
            # ``events_pending`` falls as the queue drains (it gets the
            # gauge above); runs/wall fields are per-block bookkeeping.
            if field.name in ("runs", "wall_s", "events_pending"):
                continue
            self._telemetry_counters[field.name] = registry.counter(
                f"repro_{field.name}",
                f"RunTelemetry.{field.name} running total",
            )
        self._utilization = registry.histogram(
            "repro_link_utilization",
            UTILIZATION_BUCKETS,
            "Per-link 10 s busy-fraction samples",
        )
        #: Per-link cursor into the stats collector's utilization
        #: history (how many samples this pipeline has consumed).
        self._util_cursor: Dict[int, int] = {}
        # Periodic sampling rides the same timer wheel as measurement;
        # the callback is read-only, so it can never perturb the run.
        simulation.sim.timers.every(self.interval_s, self.sample)

    # ------------------------------------------------------------------
    def sample(self) -> Dict[str, Any]:
        """Take one snapshot of the live counters (read-only)."""
        from repro.obs.telemetry import RunTelemetry

        simulation = self.simulation
        now = simulation.sim.now
        block = RunTelemetry.collect(simulation)
        values = block.to_dict()
        for name, counter in self._telemetry_counters.items():
            counter.set_total(float(values[name]))
        self._sim_time.set(now)
        self._events_pending.set(float(simulation.sim.pending))
        for link_id, history in \
                simulation.stats.utilization_history.items():
            seen = self._util_cursor.get(link_id, 0)
            for _t, value in history[seen:]:
                self._utilization.observe(value)
            self._util_cursor[link_id] = len(history)
        snapshot = self.registry.snapshot(now)
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
            write_snapshots_jsonl(self.path, self.snapshots)

    def to_prometheus(self) -> str:
        """Current registry state in Prometheus text exposition."""
        return self.registry.to_prometheus()


def build_meters(simulation, spec) -> Optional[SimulationMeters]:
    """Resolve ``ScenarioConfig.metrics`` into a pipeline (or nothing).

    ``None`` disables metrics entirely -- nothing is allocated and no
    sampler timer is scheduled, preserving the structural zero-overhead
    guarantee.  Any string builds a :class:`SimulationMeters`
    (``"memory"`` or a JSONL output path).
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        return SimulationMeters(simulation, spec)
    raise TypeError(
        f"metrics spec must be None, 'memory' or a path: {spec!r}"
    )


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
