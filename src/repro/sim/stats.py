"""Statistics collection and the simulation report.

One :class:`StatsCollector` instance observes a whole simulation run:
packet fates, routing-update traffic, reported-cost and utilization time
series.  :meth:`StatsCollector.report` condenses it into the indicators
Table 1 uses (delay, throughput, update rates, path lengths) plus drop
counts for Figure 13.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import COST_CHANGE, PACKET_DROP, UTILIZATION, Tracer
from repro.psn.packet import Packet
from repro.topology.graph import Network

if TYPE_CHECKING:  # pragma: no cover - the simulations own these
    from repro.des import Simulator
    from repro.psn.interfaces import LinkTransmitter

#: Seed of the delay reservoir's own generator: which deliveries are
#: kept is fixed, so a run's percentiles are reproducible.
RESERVOIR_SEED = 0x5EED


class DeliveryTimeline:
    """Bucketed offered/delivered packet counts over simulation time.

    The summary report only keeps whole-run totals; resilience analysis
    needs *when* delivery dipped -- the fraction of offered packets that
    made it through while the network routed around a fault.  The
    timeline buckets both counters (one-second buckets, O(1) per packet)
    so :func:`repro.report.resilience_summary` can ask for the delivery
    fraction over any window.  It is only attached when a run has a
    fault plan; otherwise the collector holds ``None`` and the hot path
    pays a single ``is not None`` test.
    """

    __slots__ = ("offered", "delivered")

    #: Width of one bucket, simulated seconds.
    bucket_s = 1.0

    def __init__(self) -> None:
        self.offered: Dict[int, int] = {}
        self.delivered: Dict[int, int] = {}

    def record_offered(self, now: float) -> None:
        bucket = int(now / self.bucket_s)
        self.offered[bucket] = self.offered.get(bucket, 0) + 1

    def record_delivered(self, now: float) -> None:
        bucket = int(now / self.bucket_s)
        self.delivered[bucket] = self.delivered.get(bucket, 0) + 1

    def fraction(self, start_s: float, end_s: float) -> float:
        """Delivered / offered over ``[start_s, end_s)`` (NaN if idle)."""
        if end_s <= start_s:
            return float("nan")
        first = int(start_s / self.bucket_s)
        last = int((end_s - 1e-12) / self.bucket_s)
        offered = sum(
            self.offered.get(b, 0) for b in range(first, last + 1)
        )
        if offered == 0:
            return float("nan")
        delivered = sum(
            self.delivered.get(b, 0) for b in range(first, last + 1)
        )
        return delivered / offered


@dataclass
class SimulationReport:
    """Summary indicators of one run (the Table-1 row set).

    Besides the dataclass fields, every report carries a ``telemetry``
    attribute: the :class:`~repro.obs.telemetry.RunTelemetry` counter
    block of the producing run, or ``None`` for reports built directly
    from a collector.  It is deliberately *not* a dataclass field --
    ``dataclasses.asdict`` (and therefore the golden snapshots, which
    pin the report bit-for-bit) sees only the behavioural indicators,
    never the observability side-channel.
    """

    metric_name: str
    duration_s: float
    #: Delivered internode traffic, kb/s.
    internode_traffic_kbps: float
    #: Mean round-trip delay, ms (twice the mean one-way delay; the
    #: ARPANET measured echoes, we measure one-way transit).
    round_trip_delay_ms: float
    #: Routing updates (one per originating PSN report) generated
    #: network-wide per second.
    updates_per_s: float
    #: Routing-update transmissions per trunk per second after the
    #: warm-up (flooding puts each update on every link; Table 1's "Rtg.
    #: Updates per Trunk/sec").  The boot flood falls in the warm-up and
    #: is not counted.  A trunk is one simplex link: each transmission
    #: occupies one direction of one circuit, and a per-circuit
    #: denominator would double every row.
    updates_per_trunk_s: float
    #: Mean seconds between updates per node.
    update_period_per_node_s: float
    #: Mean hops actually traversed per delivered packet.
    actual_path_hops: float
    #: Mean minimum-hop path length over the same packets.
    minimum_path_hops: float
    #: Congestion (buffer/line) drops.
    congestion_drops: int
    #: Packets dropped for other reasons (no route, hop limit).
    other_drops: int
    #: Packets delivered.
    delivered_packets: int
    #: Offered packets.
    offered_packets: int
    #: One-way delay percentiles over delivered packets, milliseconds.
    delay_p50_ms: float = 0.0
    delay_p90_ms: float = 0.0
    delay_p99_ms: float = 0.0

    def __post_init__(self) -> None:
        # Attached by NetworkSimulation.run(); see the class docstring
        # for why these are attributes and not fields.  ``telemetry`` is
        # the run's counter block; ``invariant_violations`` is the
        # InvariantMonitor's findings (None when checking was off);
        # ``resilience`` is the per-fault recovery summary (None when the
        # run had no fault plan).
        self.telemetry = None
        self.invariant_violations = None
        self.resilience = None

    @property
    def path_ratio(self) -> float:
        """Actual / minimum path length (1.0 = always shortest-hop)."""
        if self.minimum_path_hops == 0:
            return float("nan")
        return self.actual_path_hops / self.minimum_path_hops

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered packets."""
        if self.offered_packets == 0:
            return float("nan")
        return self.delivered_packets / self.offered_packets


class StatsCollector:
    """Accumulates everything a run reports.

    Per-delivery state is flat and bounded: the delay reservoir is one
    ``array("d")``, and the minimum-hop distances are one list of hop
    counts per source that has delivered, found by breadth-first search
    over :meth:`Network.up_rows <repro.topology.graph.Network.up_rows>`
    (no routing structures of its own).

    A delivery's minimum path length is measured over the links up when
    it is delivered: the simulations call :meth:`topology_changed`
    whenever a circuit fails or is restored, which drops every row.  A
    delivery between two nodes with no path between them at that
    moment (a packet past the cut when it opened) adds 0 to the
    minimum-hop sum and still counts as a delivery.

    Parameters
    ----------
    network:
        Topology (its up links give the minimum-hop distances).
    warmup_s:
        Events before this simulation time are ignored in summaries
        (route tables and filters need time to settle).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when enabled, the
        collector also emits drop, cost-change and utilization trace
        events as they are recorded.  Disabled or absent tracers cost
        nothing (the emission sites hold ``None``).
    timeline:
        Optional :class:`DeliveryTimeline`, which
        :class:`~repro.sim.network_sim.NetworkSimulation` attaches only
        when the run has a fault plan; when present, every offered and
        delivered packet is also bucketed by time (warmup included) for
        resilience analysis.  ``None`` (the default) costs one
        ``is not None`` test per packet.
    """

    def __init__(
        self,
        network: Network,
        warmup_s: float = 0.0,
        tracer: Optional[Tracer] = None,
        timeline: Optional[DeliveryTimeline] = None,
    ) -> None:
        self.network = network
        self.warmup_s = warmup_s
        self.timeline = timeline
        #: None when tracing is disabled, so emission sites pay one
        #: ``is not None`` test and nothing else.
        self._trace: Optional[Tracer] = (
            tracer if tracer is not None and tracer.enabled else None
        )
        self.delivered = 0
        self.offered = 0
        self.delay_sum_s = 0.0
        #: Uniform reservoir sample of one-way delays for percentile
        #: estimates (unboxed: 50 000 floats once full), with its own
        #: fixed-seed generator.
        self._delay_reservoir = array("d")
        self._reservoir_limit = 50_000
        self._reservoir_seen = 0
        self._reservoir_draw = Random(RESERVOIR_SEED).random
        self.bits_delivered = 0.0
        self.hops_sum = 0
        self.min_hops_sum = 0
        self.congestion_drops = 0
        self.unreachable_drops = 0
        self.hop_limit_drops = 0
        #: Post-warmup originated updates: one per PSN report, Table 1's
        #: per-node update.
        self.updates_originated = 0
        #: The links whose routing-update transmissions the report
        #: counts (see :meth:`attach_wire`), and their count at the
        #: warm-up instant.
        self._transmitters: Iterable[LinkTransmitter] = ()
        self._warmup_update_packets = 0
        #: (time, link_id, cost) for every link an update reported: the
        #: links whose significance criterion fired or whose line went
        #: down or up.  Quiet links riding along in the same update at
        #: their last advertised cost add no row.
        self.cost_history: List[Tuple[float, int, int]] = []
        #: per-link utilization time series: link_id -> [(time, value)].
        self.utilization_history: Dict[int, List[Tuple[float, float]]] = \
            defaultdict(list)
        #: Per source node id, its minimum-hop distance to every node
        #: (0 where there is no path), filled by :meth:`_hop_row` the
        #: first time the source is asked about since the last
        #: :meth:`topology_changed`; ``None`` until then.
        self._hops: List[Optional[List[int]]] = [None] * len(network)

    # ------------------------------------------------------------------
    # Recording callbacks (invoked by PSNs / sources / transmitters)
    # ------------------------------------------------------------------
    def attach_wire(
        self, sim: Simulator, transmitters: Dict[int, LinkTransmitter]
    ) -> None:
        """Count the routing updates ``transmitters`` put on the wire.

        With a warm-up, schedules one read-only snapshot of the count at
        ``warmup_s``; the report's update rate counts only what was sent
        after it.
        """
        self._transmitters = transmitters.values()
        if self.warmup_s > 0:
            sim.call_in(self.warmup_s, self._snapshot_warmup_updates)

    def _snapshot_warmup_updates(self) -> None:
        self._warmup_update_packets = self.update_packets_sent()

    def update_packets_sent(self) -> int:
        """Routing-update transmissions on the attached wire so far."""
        return sum(t.update_packets_sent for t in self._transmitters)

    def packet_offered(self, now: float) -> None:
        if self.timeline is not None:
            self.timeline.record_offered(now)
        if now < self.warmup_s:
            return
        self.offered += 1

    def packet_delivered(self, packet: Packet, now: float) -> None:
        if self.timeline is not None:
            self.timeline.record_delivered(now)
        if packet.created_s < self.warmup_s:
            return
        self.delivered += 1
        delay_s = now - packet.created_s
        self.delay_sum_s += delay_s
        self._sample_delay(delay_s)
        self.bits_delivered += packet.size_bits
        self.hops_sum += packet.hop_count
        hops = self._hops[packet.src]
        if hops is None:
            hops = self._hop_row(packet.src)
        self.min_hops_sum += hops[packet.dst]

    def packet_dropped(self, packet: Packet, reason: str, now: float) -> None:
        if self._trace is not None:
            self._trace.emit(
                now, PACKET_DROP, node=packet.src,
                data={"reason": reason, "dst": packet.dst},
            )
        if now < self.warmup_s:
            return
        if reason == "congestion":
            self.congestion_drops += 1
        elif reason == "unreachable":
            self.unreachable_drops += 1
        elif reason == "hop-limit":
            self.hop_limit_drops += 1
        else:
            raise ValueError(f"unknown drop reason {reason!r}")

    def update_originated(
        self, reported: Iterable[Tuple[int, int]], now: float
    ) -> None:
        """One PSN originated one update; ``reported`` are its
        ``(link_id, cost)`` entries that were reported anew."""
        for link_id, cost in reported:
            self.cost_history.append((now, link_id, cost))
            if self._trace is not None:
                self._trace.emit(now, COST_CHANGE, link=link_id, value=cost)
        if now >= self.warmup_s:
            self.updates_originated += 1

    def utilization_sample(
        self, link_id: int, value: float, now: float
    ) -> None:
        self.utilization_history[link_id].append((now, value))
        if self._trace is not None:
            self._trace.emit(now, UTILIZATION, link=link_id, value=value)

    def _sample_delay(self, delay_s: float) -> None:
        """Uniform reservoir sampling of delays (Vitter's algorithm R).

        The ``n``-th delay replaces a random slot with probability
        ``limit / n``, so every delay seen is equally likely to be in
        the reservoir.
        """
        seen = self._reservoir_seen = self._reservoir_seen + 1
        if seen <= self._reservoir_limit:
            self._delay_reservoir.append(delay_s)
            return
        slot = self._reservoir_draw() * seen
        if slot < self._reservoir_limit:
            self._delay_reservoir[int(slot)] = delay_s

    def delay_percentiles_ms(
        self, fractions: Tuple[float, ...] = (0.50, 0.90, 0.99)
    ) -> Tuple[float, ...]:
        """Estimated one-way delay percentiles in milliseconds, one per
        fraction, from one sort of the reservoir (all 0.0 when empty)."""
        for fraction in fractions:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        if not self._delay_reservoir:
            return tuple(0.0 for _ in fractions)
        ordered = sorted(self._delay_reservoir)
        last = len(ordered) - 1
        return tuple(
            ordered[min(int(fraction * len(ordered)), last)] * 1000.0
            for fraction in fractions
        )

    def delay_percentile_ms(self, fraction: float) -> float:
        """Estimated one-way delay percentile in milliseconds."""
        return self.delay_percentiles_ms((fraction,))[0]

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    def topology_changed(self) -> None:
        """A circuit failed or came back: drop every min-hop row, so the
        next delivery from each source measures the links up now."""
        self._hops = [None] * len(self.network)

    def min_hop_distance(self, src: int, dst: int) -> int:
        """Minimum-hop distance over the links up now, 0 when ``dst`` is
        unreachable.  A source's distances are computed once per
        topology: on first use, and again after each
        :meth:`topology_changed`."""
        hops = self._hops[src]
        if hops is None:
            hops = self._hop_row(src)
        return hops[dst]

    def _hop_row(self, src: int) -> List[int]:
        """Breadth-first hop counts from ``src`` over the network's up
        rows, stored for every later delivery from ``src``."""
        out_rows = self.network.up_rows()[0]
        hops = [-1] * len(out_rows)
        hops[src] = 0
        frontier = [src]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for node in frontier:
                for _link_id, dst in out_rows[node]:
                    if hops[dst] < 0:
                        hops[dst] = depth
                        reached.append(dst)
            frontier = reached
        row = self._hops[src] = [max(hop, 0) for hop in hops]
        return row

    def cost_series(self, link_id: int) -> List[Tuple[float, int]]:
        """Reported-cost time series for one link."""
        return [
            (t, cost) for t, lid, cost in self.cost_history if lid == link_id
        ]

    def report(self, metric_name: str, duration_s: float) -> SimulationReport:
        """Summarize the run over its post-warmup window."""
        window_s = max(duration_s - self.warmup_s, 1e-9)
        mean_delay_s = (
            self.delay_sum_s / self.delivered if self.delivered else 0.0
        )
        node_count = max(len(self.network), 1)
        updates_per_s = self.updates_originated / window_s
        per_node_rate = updates_per_s / node_count
        update_period = (1.0 / per_node_rate) if per_node_rate > 0 else 0.0
        trunk_count = max(len(self.network.links), 1)
        # Nothing sent before the warm-up snapshot fires counts.
        update_transmissions = (
            self.update_packets_sent() - self._warmup_update_packets
            if duration_s > self.warmup_s else 0
        )
        p50_ms, p90_ms, p99_ms = self.delay_percentiles_ms()
        return SimulationReport(
            metric_name=metric_name,
            duration_s=window_s,
            internode_traffic_kbps=self.bits_delivered / window_s / 1000.0,
            round_trip_delay_ms=2.0 * mean_delay_s * 1000.0,
            updates_per_s=updates_per_s,
            updates_per_trunk_s=update_transmissions / trunk_count / window_s,
            update_period_per_node_s=update_period,
            actual_path_hops=(
                self.hops_sum / self.delivered if self.delivered else 0.0
            ),
            minimum_path_hops=(
                self.min_hops_sum / self.delivered if self.delivered else 0.0
            ),
            congestion_drops=self.congestion_drops,
            other_drops=self.unreachable_drops + self.hop_limit_drops,
            delivered_packets=self.delivered,
            offered_packets=self.offered,
            delay_p50_ms=p50_ms,
            delay_p90_ms=p90_ms,
            delay_p99_ms=p99_ms,
        )
