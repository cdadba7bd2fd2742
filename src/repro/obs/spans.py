"""Causal spans: per-update flood trees and convergence timing.

The paper's central claims are about *transients* -- how fast HN-SPF
re-settles after a cost change and how big the resulting update storm
is.  Flat counters can't answer that; this module reconstructs the
causal story from the event trace.

Every routing update already carries a natural lineage id: the
``(origin, sequence)`` pair is unique per generated update (each PSN
numbers its updates in one sequence space), and every update-related
trace event is tagged with ``origin``/``seq`` (plus the update's entry
count) so the events of one flood can be grouped without any new wire
fields.  :func:`build_update_spans` folds a trace into
:class:`UpdateSpan` objects -- one per generated update -- whose
accepts, forwards, acks and suppressions are the flood tree's nodes
and pruned edges.  From spans we derive:

* per-update **propagation latencies** (generation to each node's
  accept) and their fixed-bucket histogram,
* per-update **fan-out** (forwards / accepting nodes),
* **convergence times** -- generation to the last accept of that
  update, and, via :func:`convergence_episodes`, first cost change to
  last SPF settle across a whole burst of related updates.

:func:`to_chrome_trace` exports spans as Chrome trace-event JSON,
loadable in Perfetto / ``chrome://tracing`` -- each lineage becomes an
async span on its origin node's track, with accepts and acks as nested
instants.

Everything here is *post-hoc*: spans are built from a finished trace,
so the zero-overhead guarantee is untouched -- an untraced run has no
events and never imports this module's machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.meters import LATENCY_BUCKETS_S, Histogram
from repro.obs.tracer import (
    CIRCUIT_FAIL,
    CIRCUIT_RESTORE,
    COST_CHANGE,
    SPF_BATCH_REPAIR,
    UPDATE_ACCEPTED,
    UPDATE_ACKED,
    UPDATE_FLOODED,
    UPDATE_GENERATED,
    UPDATE_SUPPRESSED,
)
from repro.units import CONVERGENCE_QUIET_S

#: A flood lineage: the ``(origin, sequence)`` pair that uniquely
#: identifies one generated routing update.
Lineage = Tuple[int, int]

#: Event kinds that carry lineage tags and feed span construction.
SPAN_EVENT_KINDS = (
    UPDATE_GENERATED,
    UPDATE_ACCEPTED,
    UPDATE_SUPPRESSED,
    UPDATE_ACKED,
    UPDATE_FLOODED,
)

#: Control-plane kinds whose activity defines a convergence episode.
EPISODE_EVENT_KINDS = (
    COST_CHANGE,
    UPDATE_GENERATED,
    UPDATE_ACCEPTED,
    UPDATE_FLOODED,
    SPF_BATCH_REPAIR,
)


@dataclass
class UpdateSpan:
    """The reconstructed flood tree of one generated routing update.

    Times are simulation seconds.  ``accepts`` records the first
    acceptance per receiving node (a node can hear the same update on
    several links; only the first arrival advances the flood).
    """

    origin: int
    sequence: int
    #: ``(link, cost)`` entries the update carries (one per link of the
    #: origin), if any event of the lineage recorded the count.
    entries: Optional[int] = None
    #: Generation time (``None`` for a partial trace missing the root).
    generated_t: Optional[float] = None
    #: First acceptance per node: ``[(t, node), ...]`` in trace order.
    accepts: List[Tuple[float, int]] = field(default_factory=list)
    #: Explicit acknowledgements: ``[(t, node, link), ...]``.
    acks: List[Tuple[float, int, int]] = field(default_factory=list)
    #: Onward forwards: ``[(t, node, n_links), ...]``.
    forwards: List[Tuple[float, int, int]] = field(default_factory=list)
    #: Receive-side duplicate suppressions (count).
    duplicates: int = 0

    @property
    def lineage(self) -> Lineage:
        return (self.origin, self.sequence)

    @property
    def lineage_id(self) -> str:
        """The lineage as a compact string (Chrome-trace span id)."""
        return f"{self.origin}/{self.sequence}"

    @property
    def nodes_reached(self) -> int:
        """Distinct nodes that accepted this update (origin excluded)."""
        return len({node for _t, node in self.accepts})

    @property
    def fan_out(self) -> int:
        """Total onward link transmissions scheduled by the flood."""
        return sum(n for _t, _node, n in self.forwards)

    @property
    def settle_t(self) -> Optional[float]:
        """Time of the last acceptance (``None`` if nobody accepted)."""
        if not self.accepts:
            return None
        return max(t for t, _node in self.accepts)

    @property
    def convergence_s(self) -> float:
        """Generation to last acceptance (0.0 for a no-accept flood).

        A single-event lineage -- a generation nobody ever accepted,
        e.g. an update suppressed everywhere or still in flight at the
        end of the run -- converges instantly by definition.
        """
        if self.generated_t is None or not self.accepts:
            return 0.0
        return self.settle_t - self.generated_t

    def latencies(self) -> List[float]:
        """Per-node propagation latency (generation to first accept)."""
        if self.generated_t is None:
            return []
        return [t - self.generated_t for t, _node in self.accepts]


def build_update_spans(events: Iterable) -> List[UpdateSpan]:
    """Fold a trace into one :class:`UpdateSpan` per flood lineage.

    ``events`` are trace dicts, from a tracer's ring or
    :func:`~repro.report.timeseries.read_trace` alike.  Events without
    a ``seq`` tag (older traces, non-update kinds) are ignored, so the
    builder is safe on any trace.  Spans are returned in
    first-appearance order.
    """
    spans: Dict[Lineage, UpdateSpan] = {}
    seen_accept: Dict[Lineage, set] = {}
    for event in events:
        kind = event.get("kind")
        if kind not in SPAN_EVENT_KINDS:
            continue
        seq = event.get("seq")
        origin = event.get("origin")
        if seq is None or origin is None:
            continue
        node = event.get("node")
        t = event.get("t", 0.0)
        lineage: Lineage = (origin, seq)
        span = spans.get(lineage)
        if span is None:
            span = UpdateSpan(origin=origin, sequence=seq)
            spans[lineage] = span
            seen_accept[lineage] = set()
        if span.entries is None:
            span.entries = event.get("entries")
        if kind == UPDATE_GENERATED:
            span.generated_t = t
        elif kind == UPDATE_ACCEPTED:
            if node not in seen_accept[lineage]:
                seen_accept[lineage].add(node)
                span.accepts.append((t, node))
        elif kind == UPDATE_SUPPRESSED:
            span.duplicates += 1
        elif kind == UPDATE_ACKED:
            span.acks.append((t, node, event.get("on")))
        elif kind == UPDATE_FLOODED:
            span.forwards.append((t, node, int(event.get("value") or 0)))
    return list(spans.values())


def propagation_latencies(spans: Iterable[UpdateSpan]) -> List[float]:
    """Every per-node propagation latency across a set of spans."""
    latencies: List[float] = []
    for span in spans:
        latencies.extend(span.latencies())
    return latencies


def latency_histogram(
    spans: Iterable[UpdateSpan],
    buckets: Sequence[float] = LATENCY_BUCKETS_S,
    name: str = "repro_update_propagation_latency_s",
) -> Histogram:
    """Fixed-bucket histogram of propagation latencies."""
    histogram = Histogram(
        name, buckets, "Update generation to per-node accept (seconds)"
    )
    for latency in propagation_latencies(spans):
        histogram.observe(latency)
    return histogram


def convergence_times(spans: Iterable[UpdateSpan]) -> List[float]:
    """Per-update convergence time for spans whose root was traced."""
    return [
        span.convergence_s for span in spans
        if span.generated_t is not None
    ]


def convergence_episodes(
    events: Iterable, quiet_s: float = CONVERGENCE_QUIET_S
) -> List[Tuple[float, float]]:
    """Burst-level convergence: first cost change to last SPF settle.

    A cost change rarely travels alone -- a circuit failure triggers
    updates from both endpoints and the resulting SPF repairs ripple
    for a while.  This chains control-plane events (cost changes,
    update generation/acceptance/flooding, SPF repairs) whose gaps are
    below ``quiet_s`` into episodes and returns each episode's
    ``(start_t, end_t)``.  ``end_t - start_t`` is the network's
    time-to-quiescence for that disturbance.
    """
    if quiet_s <= 0:
        raise ValueError(f"quiet_s must be positive: {quiet_s}")
    times = sorted(
        event["t"]
        for event in events
        if event.get("kind") in EPISODE_EVENT_KINDS
    )
    episodes: List[Tuple[float, float]] = []
    for t in times:
        if episodes and t - episodes[-1][1] < quiet_s:
            episodes[-1] = (episodes[-1][0], t)
        else:
            episodes.append((t, t))
    return episodes


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
#: Process id of the network track in the exported trace.
_PID_NETWORK = 0


def to_chrome_trace(events: Iterable) -> Dict[str, Any]:
    """Render a trace as Chrome trace-event JSON (Perfetto-loadable).

    Each flood lineage becomes an async span (``ph: "b"``/``"e"``) on
    its origin's track, opening at generation and closing at the last
    acceptance (or reopening time for a degenerate single-event
    lineage); accepts and acks appear as nested instants (``"n"``).
    Circuit failures/restores are global instant events (``"i"``).

    Timestamps are microseconds (the format's unit); simulation seconds
    scale by 1e6.
    """
    events = list(events)
    spans = build_update_spans(events)
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID_NETWORK,
            "tid": 0,
            "args": {"name": "network (simulation time)"},
        },
    ]
    for span in spans:
        if span.generated_t is None:
            continue
        begin_us = span.generated_t * 1e6
        settle = span.settle_t
        end_us = (settle if settle is not None else span.generated_t) * 1e6
        common = {
            "cat": "flood",
            "name": f"update {span.lineage_id}",
            "id": span.lineage_id,
            "pid": _PID_NETWORK,
            "tid": span.origin,
        }
        trace_events.append(
            {
                **common,
                "ph": "b",
                "ts": begin_us,
                "args": {
                    "origin": span.origin,
                    "seq": span.sequence,
                    "entries": span.entries,
                    "fan_out": span.fan_out,
                    "duplicates": span.duplicates,
                },
            }
        )
        for t, node in span.accepts:
            trace_events.append(
                {
                    **common,
                    "ph": "n",
                    "name": f"accepted @{node}",
                    "ts": t * 1e6,
                    "args": {"node": node},
                }
            )
        for t, node, on in span.acks:
            trace_events.append(
                {
                    **common,
                    "ph": "n",
                    "name": f"acked @{node}",
                    "ts": t * 1e6,
                    "args": {"node": node, "on": on},
                }
            )
        trace_events.append(
            {
                **common,
                "ph": "e",
                "ts": end_us,
                "args": {
                    "nodes_reached": span.nodes_reached,
                    "convergence_s": span.convergence_s,
                },
            }
        )
    for event in events:
        if event.get("kind") in (CIRCUIT_FAIL, CIRCUIT_RESTORE):
            trace_events.append(
                {
                    "cat": "topology",
                    "name": event["kind"],
                    "ph": "i",
                    "s": "g",
                    "ts": event["t"] * 1e6,
                    "pid": _PID_NETWORK,
                    "tid": 0,
                    "args": {"link": event.get("link")},
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: Iterable) -> str:
    """Write :func:`to_chrome_trace` output as JSON; returns ``path``."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(events), handle)
        handle.write("\n")
    return path
