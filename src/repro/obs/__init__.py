"""Simulation observability: tracing, telemetry, spans, metrics.

The feedback loop real routing stacks have (SNMP counters, NOC traces)
for this reproduction's simulator, in zero-overhead-when-disabled
pieces:

* **structured event tracing** (:mod:`repro.obs.tracer`) -- a
  :class:`Tracer` records simulation-timestamped control-plane events
  (cost changes, update flooding, SPF repairs, circuit transitions,
  drops, utilization samples) as plain dicts into a pluggable sink:
  in-memory ring, JSONL file, or null.  A ring's events and a JSONL
  trace read back are the same objects, so every reader (spans, the
  :mod:`repro.report.timeseries` adapter for the paper's
  Fig. 8-13-style time series) takes either.
* **hot-path counters** (:mod:`repro.obs.telemetry`) -- a
  :class:`RunTelemetry` block harvested once per run from counters the
  subsystems already keep (scheduler events, SPF work, flood
  duplicates, shared-tree hits); attached to every
  :class:`~repro.sim.stats.SimulationReport` and mergeable across
  parallel replications with :func:`merge_telemetry`.
* **causal spans** (:mod:`repro.obs.spans`) -- per-update flood trees
  reconstructed from lineage-tagged trace events: propagation-latency
  distributions, fan-out, convergence times, Chrome-trace export.
* **live metrics** (:mod:`repro.obs.meters`) -- the telemetry block
  sampled every measurement interval into deterministic snapshots,
  rendered as Prometheus text or written as JSONL, behind
  ``ScenarioConfig(metrics=...)``.

See ``docs/observability.md`` for the event schema, sink
configuration, and the overhead guarantees.
"""

from repro._lazy import lazy_exports
from repro.obs.telemetry import RunTelemetry, merge_telemetry
from repro.obs.tracer import (
    CIRCUIT_FAIL,
    CIRCUIT_RESTORE,
    COST_CHANGE,
    EVENT_KINDS,
    NULL_TRACER,
    PACKET_DROP,
    SPF_BATCH_REPAIR,
    UPDATE_ACCEPTED,
    UPDATE_ACKED,
    UPDATE_FLOODED,
    UPDATE_GENERATED,
    UPDATE_SUPPRESSED,
    UTILIZATION,
    JsonlSink,
    NullSink,
    RingSink,
    Tracer,
    build_tracer,
)

# What only a metered or span-analysed run uses; every
# simulation imports this package for its tracer and telemetry.
__getattr__ = lazy_exports(__name__, {
    "repro.obs.meters": (
        "LATENCY_BUCKETS_S",
        "UTILIZATION_BUCKETS",
        "Histogram",
        "SimulationMeters",
        "counter_timeseries",
        "to_prometheus",
    ),
    "repro.obs.spans": (
        "UpdateSpan",
        "build_update_spans",
        "convergence_episodes",
        "convergence_times",
        "latency_histogram",
        "propagation_latencies",
        "to_chrome_trace",
        "write_chrome_trace",
    ),
})

__all__ = [
    "CIRCUIT_FAIL",
    "CIRCUIT_RESTORE",
    "COST_CHANGE",
    "EVENT_KINDS",
    "LATENCY_BUCKETS_S",
    "NULL_TRACER",
    "PACKET_DROP",
    "SPF_BATCH_REPAIR",
    "UPDATE_ACCEPTED",
    "UPDATE_ACKED",
    "UPDATE_FLOODED",
    "UPDATE_GENERATED",
    "UPDATE_SUPPRESSED",
    "UTILIZATION",
    "UTILIZATION_BUCKETS",
    "Histogram",
    "JsonlSink",
    "NullSink",
    "RingSink",
    "RunTelemetry",
    "SimulationMeters",
    "Tracer",
    "UpdateSpan",
    "build_tracer",
    "build_update_spans",
    "convergence_episodes",
    "convergence_times",
    "counter_timeseries",
    "latency_histogram",
    "merge_telemetry",
    "propagation_latencies",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
]
