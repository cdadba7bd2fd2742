"""Trace-to-timeseries adapter: rebuild the paper's plots from a trace.

The experiments derive their Figure 1/8-13-style series from a live
:class:`~repro.sim.stats.StatsCollector`.  This module derives the same
series from a *recorded* trace instead -- any JSONL trace of any run
can reproduce the reported-cost and utilization time series after the
fact, the way BBN re-plotted NOC captures.  The adapter is pure: it
reads trace dicts -- :func:`read_trace` of a JSONL file or a tracer's
``events()``, which are equal for the same run -- and never needs a
simulator.

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

from repro.obs.tracer import COST_CHANGE, PACKET_DROP, UTILIZATION


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


def _link_series(
    events: Iterable[Dict[str, Any]], kind: str, link_id: Optional[int]
) -> Dict[int, List[Tuple[float, Any]]]:
    """``{link: [(t, value), ...]}`` of one per-link event kind."""
    series: Dict[int, List[Tuple[float, Any]]] = defaultdict(list)
    for event in events:
        if event["kind"] == kind and link_id in (None, event["link"]):
            series[event["link"]].append((event["t"], event["value"]))
    return dict(series)


def cost_timeseries(
    events: Iterable[Dict[str, Any]],
    link_id: Optional[int] = None,
) -> Dict[int, List[Tuple[float, int]]]:
    """Per-link reported-cost series from ``cost-change`` events.

    Returns ``{link_id: [(t, cost), ...]}`` in trace order (which is
    simulation-time order).  Restrict to one link with ``link_id``.
    """
    return _link_series(events, COST_CHANGE, link_id)


def utilization_timeseries(
    events: Iterable[Dict[str, Any]],
    link_id: Optional[int] = None,
) -> Dict[int, List[Tuple[float, float]]]:
    """Per-link utilization series from ``utilization`` sample events."""
    return _link_series(events, UTILIZATION, link_id)


def drop_timeseries(
    events: Iterable[Dict[str, Any]],
) -> List[Tuple[float, str]]:
    """``(t, reason)`` for every packet drop, in trace order (Fig. 13)."""
    return [
        (event["t"], event.get("reason", "unknown"))
        for event in events
        if event["kind"] == PACKET_DROP
    ]


def event_counts(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """How many events of each kind the trace holds."""
    return dict(Counter(event["kind"] for event in events))


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
