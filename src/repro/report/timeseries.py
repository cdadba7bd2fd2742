"""Trace-to-timeseries adapter: rebuild the paper's plots from a trace.

The experiments derive their Figure 1/8-13-style series from a live
:class:`~repro.sim.stats.StatsCollector`.  This module derives the same
series from a *recorded* trace instead -- any JSONL trace of any run
can reproduce the reported-cost and utilization time series after the
fact, the way BBN re-plotted NOC captures.  The adapter is pure: it
reads event dicts (from :func:`read_trace` or
:func:`repro.obs.tracer.events_to_dicts`) and never needs a simulator.

The equivalences the test suite pins down:

* ``cost_timeseries(events)[link]`` == ``StatsCollector.cost_series(link)``
* ``utilization_timeseries(events)[link]`` ==
  ``StatsCollector.utilization_history[link]``

so a trace is a complete substitute for the in-memory histories.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import (
    COST_CHANGE,
    PACKET_DROP,
    UTILIZATION,
    EventLike,
    events_to_dicts,
)


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace written by a :class:`~repro.obs.tracer.JsonlSink`.

    Blank lines are skipped, so a trace truncated mid-line by a crashed
    run raises on exactly the broken record rather than silently
    dropping data.
    """
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def cost_timeseries(
    events: Iterable[EventLike],
    link_id: Optional[int] = None,
) -> Dict[int, List[Tuple[float, int]]]:
    """Per-link reported-cost series from ``cost-change`` events.

    Returns ``{link_id: [(t, cost), ...]}`` in trace order (which is
    simulation-time order).  Restrict to one link with ``link_id``.
    """
    series: Dict[int, List[Tuple[float, int]]] = defaultdict(list)
    for event in events_to_dicts(events):
        if event["kind"] != COST_CHANGE:
            continue
        link = event["link"]
        if link_id is not None and link != link_id:
            continue
        series[link].append((event["t"], event["value"]))
    return dict(series)


def utilization_timeseries(
    events: Iterable[EventLike],
    link_id: Optional[int] = None,
) -> Dict[int, List[Tuple[float, float]]]:
    """Per-link utilization series from ``utilization`` sample events."""
    series: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for event in events_to_dicts(events):
        if event["kind"] != UTILIZATION:
            continue
        link = event["link"]
        if link_id is not None and link != link_id:
            continue
        series[link].append((event["t"], event["value"]))
    return dict(series)


def drop_timeseries(
    events: Iterable[EventLike],
) -> List[Tuple[float, str]]:
    """``(t, reason)`` for every packet drop, in trace order (Fig. 13)."""
    return [
        (event["t"], event.get("reason", "unknown"))
        for event in events_to_dicts(events)
        if event["kind"] == PACKET_DROP
    ]


def event_counts(events: Iterable[EventLike]) -> Dict[str, int]:
    """How many events of each kind the trace holds."""
    counts: Counter = Counter()
    for event in events_to_dicts(events):
        counts[event["kind"]] += 1
    return dict(counts)


def bucketed_rate(
    series: List[Tuple[float, float]],
    bucket_s: float,
) -> List[Tuple[float, float]]:
    """Events per second in fixed time buckets (update-traffic plots).

    ``series`` is any ``(t, value)`` list; only the times are used.
    Returns ``(bucket_start_s, events_per_s)`` for each non-empty span
    from the first to the last event.
    """
    if bucket_s <= 0:
        raise ValueError(f"bucket must be positive, got {bucket_s}")
    if not series:
        return []
    counts: Counter = Counter()
    for t, _value in series:
        counts[int(t / bucket_s)] += 1
    first = min(counts)
    last = max(counts)
    return [
        (bucket * bucket_s, counts.get(bucket, 0) / bucket_s)
        for bucket in range(first, last + 1)
    ]
