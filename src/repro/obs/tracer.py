"""Structured event tracing.

The paper's evidence is *instrumented* network behaviour: Figures 8-13
are time series of reported cost, utilization and update traffic
captured from live trunks.  The :class:`Tracer` records the same
control-plane story from a simulation run -- simulation-timestamped
events, each a plain dict (``{"t", "kind", ...}``) -- into a pluggable
sink:

* :class:`RingSink` -- a bounded in-memory ring (the default for
  interactive use; old events fall off the front),
* :class:`JsonlSink` -- the same dicts, one JSON object per line in a
  file (:func:`repro.report.timeseries.read_trace` loads them back
  equal to what a ring holds),
* :class:`NullSink` -- counts and discards (for overhead measurement).

**Zero overhead when disabled** is a hard guarantee: the module-level
:data:`NULL_TRACER` singleton is the disabled tracer; it owns no sink
and its :attr:`Tracer.enabled` flag is ``False``.  Components never
call a disabled tracer -- they hold ``None`` instead of a tracer and
guard emission sites with one ``is not None`` test on the (cold)
control plane.  The packet-level hot path is untouched: tracing covers
routing dynamics (cost changes, update flooding, SPF repairs, circuit
transitions, drops, utilization samples), never per-packet forwarding.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Union

# ----------------------------------------------------------------------
# Event kinds (the trace schema; see docs/observability.md)
# ----------------------------------------------------------------------
#: A node reported one of its links anew (one event per link an
#: update reported; quiet links riding along add none).
COST_CHANGE = "cost-change"
#: A routing update was originated (flood root).  Every ``update-*``
#: event carries ``origin``, ``seq`` and ``entries`` (the update's
#: ``(link, cost)`` entry count, one per link of the origin).
UPDATE_GENERATED = "update-generated"
#: A received routing update was new and applied locally.
UPDATE_ACCEPTED = "update-accepted"
#: A received routing update was a duplicate and suppressed.
UPDATE_SUPPRESSED = "update-suppressed"
#: A neighbour explicitly acknowledged an update we sent it;
#: ``data["on"]`` is the link the update had crossed.
UPDATE_ACKED = "update-acked"
#: An update was forwarded onward; ``value`` is the number of links.
UPDATE_FLOODED = "update-flooded"
#: A batched SPF repair pass ran; ``value`` is the changes absorbed.
SPF_BATCH_REPAIR = "spf-batch-repair"
#: A full-duplex circuit failed.
CIRCUIT_FAIL = "circuit-fail"
#: A failed circuit was restored.
CIRCUIT_RESTORE = "circuit-restore"
#: A data packet was dropped; ``data["reason"]`` says why.
PACKET_DROP = "packet-drop"
#: A ten-second link utilization sample closed; ``value`` is the busy
#: fraction.
UTILIZATION = "utilization"
#: A fault plan crashed a whole PSN (all its circuits fail).
PSN_CRASH = "psn-crash"
#: A crashed PSN restarted (all its circuits restore).
PSN_RESTART = "psn-restart"
#: A fault plan cut a region off; ``value`` is the group size.
PARTITION = "partition"
#: A regional partition healed; ``value`` is the group size.
PARTITION_HEAL = "partition-heal"
#: The invariant monitor observed a breached metric guarantee;
#: ``data["invariant"]`` names it (see :mod:`repro.faults.invariants`).
INVARIANT_VIOLATION = "invariant-violation"
#: The defense layer rejected a received routing update;
#: ``data["reason"]`` says why (see :mod:`repro.routing.defense`).
UPDATE_REJECTED = "update-rejected"
#: A misbehaving neighbour was quarantined; ``data["neighbor"]`` names
#: it and ``data["until_s"]`` says when rehabilitation is due.
NEIGHBOR_QUARANTINED = "neighbor-quarantined"
#: A self-stabilization pass evicted aged flooding-database entries;
#: ``value`` is the number of entries purged.
DB_PURGED = "db-purged"

EVENT_KINDS = (
    COST_CHANGE,
    UPDATE_GENERATED,
    UPDATE_ACCEPTED,
    UPDATE_SUPPRESSED,
    UPDATE_ACKED,
    UPDATE_FLOODED,
    SPF_BATCH_REPAIR,
    CIRCUIT_FAIL,
    CIRCUIT_RESTORE,
    PACKET_DROP,
    UTILIZATION,
    PSN_CRASH,
    PSN_RESTART,
    PARTITION,
    PARTITION_HEAL,
    INVARIANT_VIOLATION,
    UPDATE_REJECTED,
    NEIGHBOR_QUARANTINED,
    DB_PURGED,
)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class NullSink:
    """Discards every event (overhead floor for enabled tracing)."""

    def append(self, event: Dict[str, Any]) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class RingSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 262_144) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)

    def append(self, event: Dict[str, Any]) -> None:
        self._ring.append(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._ring)

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first."""
        return list(self._ring)


class JsonlSink:
    """Writes one JSON object per event to ``path``.

    The file is opened on construction and truncated; lines are written
    as events arrive (buffered by the underlying file object), so a
    crashed run still leaves a usable prefix after :meth:`flush`.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle = open(self.path, "w")
        self._dumps = json.dumps

    def append(self, event: Dict[str, Any]) -> None:
        self._handle.write(self._dumps(event))
        self._handle.write("\n")

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class Tracer:
    """Records typed events into a sink.

    Parameters
    ----------
    sink:
        Where events go.  ``None`` constructs the *disabled* tracer:
        ``enabled`` is ``False``, no sink object exists, and
        :meth:`emit` raises if ever called (components must hold
        ``None`` instead of a disabled tracer on their emission paths
        -- the test suite asserts no sink is allocated for disabled
        runs).
    """

    __slots__ = ("sink", "enabled", "events_emitted")

    def __init__(self, sink: Optional[object] = None) -> None:
        self.sink = sink
        self.enabled = sink is not None
        self.events_emitted = 0

    def emit(
        self,
        t: float,
        kind: str,
        node: Optional[int] = None,
        link: Optional[int] = None,
        value: Optional[float] = None,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one event at simulation time ``t``.

        The event is the plain dict the JSONL sink writes: ``t`` and
        ``kind``, then ``node`` / ``link`` / ``value`` when set, then
        the ``data`` fields -- one form in memory and on disk.
        """
        event: Dict[str, Any] = {"t": t, "kind": kind}
        if node is not None:
            event["node"] = node
        if link is not None:
            event["link"] = link
        if value is not None:
            event["value"] = value
        if data:
            event.update(data)
        self.events_emitted += 1
        self.sink.append(event)

    def flush(self) -> None:
        if self.sink is not None:
            self.sink.flush()

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    def events(self) -> List[Dict[str, Any]]:
        """Retained events, for sinks that keep them (:class:`RingSink`)."""
        if isinstance(self.sink, RingSink):
            return self.sink.events()
        raise TypeError(
            f"sink {type(self.sink).__name__ if self.sink else None} "
            f"does not retain events; use a RingSink"
        )

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<Tracer {state} sink={type(self.sink).__name__ if self.sink else None} "
            f"emitted={self.events_emitted}>"
        )


#: The process-wide disabled tracer.  Sharing one instance makes
#: "disabled" allocation-free: simulations built without tracing all
#: reference this singleton and construct nothing.
NULL_TRACER = Tracer(None)


def build_tracer(spec: Union[None, str, Tracer]) -> Tracer:
    """Resolve a scenario-level trace spec into a :class:`Tracer`.

    * ``None`` -- tracing disabled; returns :data:`NULL_TRACER` (no
      allocation).
    * ``"memory"`` -- an in-memory :class:`RingSink` tracer.
    * ``"null"`` -- an enabled tracer over a :class:`NullSink` (for
      measuring tracing's own overhead).
    * any other string -- treated as a file path; a :class:`JsonlSink`
      tracer writing there (conventionally ``*.jsonl``).
    * a :class:`Tracer` -- returned as-is (programmatic use; not
      picklable, so :class:`~repro.sim.parallel.RunSpec` configs should
      use string specs, each traced spec with a file path of its own).
    """
    if spec is None:
        return NULL_TRACER
    if isinstance(spec, Tracer):
        return spec
    if spec == "memory":
        return Tracer(RingSink())
    if spec == "null":
        return Tracer(NullSink())
    if isinstance(spec, str):
        return Tracer(JsonlSink(spec))
    raise TypeError(
        f"trace spec must be None, 'memory', 'null', a path or a Tracer: "
        f"{spec!r}"
    )
