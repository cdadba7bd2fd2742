"""The PSN: forwarding, measurement, update generation, route maintenance.

Each :class:`Psn` owns the transmitters of its outgoing links and holds
the routing its metric starts (``metric.start_routing``).  Link-state
SPF (1979, 1987) gives it an incrementally-maintained SPF tree over its
own view of the link costs, per-link metric state, and the update
protocol (:class:`~repro.routing.flooding.FloodingState`: acks,
screening, re-flooding, retransmission).  A measurement process closes a
ten-second averaging interval per link and runs the metric; when any
link's change is significant (or its 50-second cap expires) the node
floods one update carrying the costs of all its links.  The 1969 metric
gives it a :class:`~repro.routing.bellman_ford.DistanceVectorProtocol`
instead, as both update protocol and router, and no SPF state.

Routing-update packets are processed the instant they are delivered --
*"routing update processing is a high priority process within the PSN"* --
which is exactly what makes all nodes shift their routes near-
simultaneously and fuels D-SPF's oscillation.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from repro.des import RandomStreams, Simulator
from repro.obs.tracer import SPF_BATCH_REPAIR, UPDATE_GENERATED, Tracer
from repro.psn.flow_control import RFNM_BITS, HostInterface
from repro.psn.interfaces import LinkTransmitter
from repro.psn.measurement import SignificanceCriterion
from repro.psn.packet import Packet, PacketKind
from repro.routing.defense import PURGE_INTERVAL_S, DefensePolicy
from repro.routing.flooding import (
    UPDATE_RETRANSMIT_S, FloodingState, RoutingUpdate, lineage,
)
from repro.routing.multipath import EQUAL_COST_SLACK, MultipathRouter
from repro.routing.spf import CostTable, SpfTree
from repro.routing.spf_cache import ForwardingTable, SpfCache
from repro.topology.graph import Link, Network
from repro.units import DOWN_COST, MEASUREMENT_INTERVAL_S

if TYPE_CHECKING:  # pragma: no cover - avoids psn <-> sim, routing cycles
    from repro.metrics.base import LinkMetric
    from repro.routing.bellman_ford import QueueLengthMetric
    from repro.sim.stats import StatsCollector

#: Hot-path aliases: one global load instead of two attribute chases.
_DATA = PacketKind.DATA
_ROUTING_UPDATE = PacketKind.ROUTING_UPDATE
_UPDATE_ACK = PacketKind.UPDATE_ACK
_DISTANCE_VECTOR = PacketKind.DISTANCE_VECTOR

#: Forwarding hop limit; transient inconsistency can loop packets.
MAX_HOPS = 32


class Psn:
    """One packet switching node.

    Routing updates are written to the cost table as they arrive and
    buffered; the SPF tree (and, under multipath, the router's candidate
    sets) is repaired with one
    :meth:`~repro.routing.spf.SpfTree.update_costs` pass when a
    forwarding decision next consults it.  A flood reaching this node
    while it has no data packet in flight then costs one Dijkstra pass
    instead of one per update; the canonical smallest-link-id tie-break
    (see :mod:`repro.routing.spf`) makes the tree the one a full
    recompute would build.

    Parameters
    ----------
    sim, network, node_id:
        Where and who.
    metric:
        The metric in force (shared by all nodes).  Once every PSN is
        built, its ``start_routing`` gives each one its routing.
    transmitters:
        This node's outgoing-link transmitters, keyed by link id.
    stats:
        The run-wide statistics collector.
    flow_control_window:
        The RFNM window per destination, or ``None`` for no end-to-end
        flow control.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` recording this node's
        control-plane events (update generation, SPF repairs, and the
        protocol's flood, ack and screening events).  A disabled or
        absent tracer costs nothing: the emission sites hold ``None``
        and the per-packet forwarding path is never traced at all.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        metric: Union[LinkMetric, QueueLengthMetric],
        transmitters: Dict[int, LinkTransmitter],
        stats: "StatsCollector",
        flow_control_window: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.metric = metric
        self.transmitters = transmitters
        self.stats = stats
        #: None unless an *enabled* tracer was supplied: the emission
        #: sites then pay one ``is not None`` test, nothing more.
        self._trace: Optional[Tracer] = (
            tracer if tracer is not None and tracer.enabled else None
        )

        # End-to-end (RFNM) flow control, if the scenario enables it.
        self.host: Optional[HostInterface] = None
        if flow_control_window is not None:
            self.host = HostInterface(
                window=flow_control_window, send=self._inject_now
            )

        # What ``forward`` tests, and all it tests: the SPF next-hop
        # table while no update is buffered and no router is attached,
        # else ``None`` (the slow path, :meth:`_forward_slow`, then
        # flushes, takes a table or asks the router).
        self._forwarding: Optional[ForwardingTable] = None
        # Batched SPF repair: each changed link's pre-batch cost, in
        # first-change order (empty under the 1969 protocol).
        self._pending_old: Dict[int, float] = {}
        # ``metric.start_routing`` installs the protocol, its reaction
        # to a local link going down or up, and the router
        # (:meth:`start_link_state`, or the 1969 protocol in all three).
        self.flooding = self.router = None
        self.on_link_change: Callable[[int, bool], None]

    def start_link_state(
        self, costs: CostTable, spf_cache: SpfCache, streams: RandomStreams,
        multipath_mode: Optional[str], defense_policy: Optional[DefensePolicy],
        tracer: Optional[Tracer],
    ) -> None:
        """Start link-state SPF: flooding, measurement, tree, router.

        ``costs`` holds every link's idle cost, for this node alone;
        ``spf_cache`` hands out the next-hop tables for its tree and
        shares the multipath router's trees; ``defense_policy`` (or
        ``None``) screens the update protocol, with a purge pass.
        """
        sim, network, node_id = self.sim, self.network, self.node_id
        # Written eagerly as updates arrive (only the tree repair lags),
        # so reading ``psn.costs`` never depends on when this node last
        # forwarded a packet.
        self.costs = costs
        self.spf_cache = spf_cache
        # The tree's next-hop table, taken on first use and dropped
        # whenever a flushed burst of routing updates moves the tree.
        self._table: Optional[ForwardingTable] = None
        # While the update protocol is stuck nothing originates; the
        # data plane keeps forwarding on the frozen tables.
        self.flooding = FloodingState(
            network, node_id, sim, self.transmitters, self._apply_update,
            defense_policy, tracer,
        )
        self.on_link_change = self._report_link_change
        if defense_policy is not None:
            sim.timers.every(
                PURGE_INTERVAL_S, self.flooding.purge_tick,
                first_fire_s=PURGE_INTERVAL_S,
            )
        self._metric_state: Dict[int, object] = {}
        self._criterion: Dict[int, SignificanceCriterion] = {}
        advertised = self.flooding.advertised

        for link_id in self.transmitters:
            link = network.link(link_id)
            self._init_link_state(link)
            # Everyone assumes idle costs at boot; advertise our real
            # initial (ease-in) costs, the fresh states' last reports,
            # so the network learns them.
            initial = self._metric_state[link_id].last_reported
            self.costs[link_id] = float(initial)
            advertised[link_id] = initial if link.up else DOWN_COST

        self.tree = SpfTree(network, node_id, self.costs)
        # Optional extension: equal-cost multipath forwarding (the
        # remedy the paper's section 4.5 cites for few-large-flows
        # traffic).  The router shares our cost table and is rebuilt
        # with the tree when a burst of updates is flushed.
        if multipath_mode is not None:
            self.router = MultipathRouter(
                network, node_id, self.costs, mode=multipath_mode,
                slack=EQUAL_COST_SLACK, cache=self.spf_cache,
            )
        # Each of this PSN's names is drawn from once: a throwaway
        # generator, not one cached in ``streams`` for the whole run.
        offset = Random(streams.seed(f"psn-{node_id}-phase")).uniform(
            0.0, MEASUREMENT_INTERVAL_S
        )
        # Periodic work rides the timer wheel: one heap entry per timer.
        self._measurement = sim.timers.every(
            MEASUREMENT_INTERVAL_S,
            self._close_measurement_interval,
            first_fire_s=offset + MEASUREMENT_INTERVAL_S,
        )
        # Reliable update delivery (Rosen's protocol): every update sent
        # on a link is retransmitted until the neighbour acknowledges it
        # (the ledger is ``self.flooding.unacked``).
        sim.timers.every(UPDATE_RETRANSMIT_S, self.flooding.retransmit_tick)
        # A booting PSN floods its links' initial (ease-in) costs in one
        # update -- otherwise the rest of the network would assume idle
        # costs and the ease-in would only exist in the owner's
        # imagination.
        boot_jitter = Random(streams.seed(f"psn-{node_id}-boot")).uniform(
            0.0, 0.1
        )
        sim.call_in(boot_jitter, self._boot_advertise)

    def _boot_advertise(self) -> None:
        self.advertise({
            link_id: cost for link_id, cost in self.flooding.advertised.items()
            if self.network.link(link_id).up
        })

    def _init_link_state(self, link: Link) -> None:
        self._metric_state[link.link_id] = self.metric.create_state(link)
        # A fresh measurement interval: discard what the old one held.
        self.transmitters[link.link_id].take_delay()
        self._criterion[link.link_id] = SignificanceCriterion(
            self.metric.change_threshold(link)
        )

    # ------------------------------------------------------------------
    # Packet plane
    # ------------------------------------------------------------------
    def inject(self, src: int, dst: int, size_bits: float) -> None:
        """Accept a locally generated message.

        With flow control enabled the message may wait in the host queue
        for window space; otherwise it enters the subnet immediately.
        """
        now = self.sim.now
        self.stats.packet_offered(now)
        if self.host is not None:
            self.host.submit(dst, size_bits)
            return
        self.forward(
            Packet(_DATA, self.node_id, dst, size_bits, now)
        )

    def _inject_now(self, dst: int, size_bits: float) -> None:
        """The host interface's send: a message the window admitted."""
        self.forward(Packet(_DATA, self.node_id, dst, size_bits, self.sim.now))

    def receive(self, packet: Packet, via: Link) -> None:
        """Handle a packet delivered by a neighbour's transmitter.

        Transit data does not come here: the transmitter hands it
        straight to :meth:`forward`.  A transit RFNM (or transit data
        handed in directly) passes on to :meth:`forward`; every other
        fate (an update or ack consumed, a message or RFNM at its
        destination) ends here.  Data is tested first.
        """
        kind = packet.kind
        if kind is _DATA:
            if packet.dst != self.node_id:
                self.forward(packet)
            else:
                self.stats.packet_delivered(packet, self.sim.now)
                if self.host is not None:
                    self._send_rfnm(packet)
        elif kind is _ROUTING_UPDATE:
            self.flooding.receive_update(packet, via)
        elif kind is _UPDATE_ACK:
            self.flooding.receive_ack(packet, via)
        elif kind is _DISTANCE_VECTOR:
            self.flooding.receive(packet, via)
        elif packet.dst != self.node_id:  # an RFNM in transit
            self.forward(packet)
        elif self.host is not None:
            self.host.on_rfnm(packet.src)

    def _send_rfnm(self, delivered: Packet) -> None:
        """Acknowledge a delivered message back to its source PSN."""
        self.forward(Packet(
            PacketKind.RFNM, self.node_id, delivered.src, RFNM_BITS,
            self.sim.now,
        ))

    def forward(self, packet: Packet) -> None:
        """Destination-based forwarding on the current table.

        The one test is whether that table is usable; a buffered update,
        a tree the table no longer matches, or the multipath router
        takes the slow path.  Transit data arrives here straight from
        the transmitter, without :meth:`receive`.
        """
        table = self._forwarding
        if table is None:
            self._forward_slow(packet)
            return
        if packet.hop_count >= MAX_HOPS:
            self.stats.packet_dropped(packet, "hop-limit", self.sim.now)
            return
        link_id = table[packet.dst]
        if link_id is None:
            self.stats.packet_dropped(packet, "unreachable", self.sim.now)
            return
        self.transmitters[link_id].send(packet)

    def _forward_slow(self, packet: Packet) -> None:
        """:meth:`forward` without a usable table: flush any buffered
        updates, apply the hop limit, then take a table (a no-op batch
        keeps the old one) or ask the router."""
        if self._pending_old:
            self.flush_pending_updates()
        if packet.hop_count >= MAX_HOPS:
            self.stats.packet_dropped(packet, "hop-limit", self.sim.now)
            return
        if self.router is not None:
            link_id = self.router.next_hop_link(packet.dst, src=packet.src)
        else:
            table = self._table
            if table is None:
                table = self._table = \
                    self.spf_cache.forwarding_table(self.tree)
            self._forwarding = table
            link_id = table[packet.dst]
        if link_id is None:
            self.stats.packet_dropped(packet, "unreachable", self.sim.now)
            return
        self.transmitters[link_id].send(packet)

    # ------------------------------------------------------------------
    # Measurement / update generation
    # ------------------------------------------------------------------
    def _close_measurement_interval(self) -> None:
        reported: Dict[int, int] = {}
        for link_id, transmitter in self.transmitters.items():
            link = self.network.link(link_id)
            utilization = transmitter.take_utilization(MEASUREMENT_INTERVAL_S)
            self.stats.utilization_sample(link_id, utilization, self.sim.now)
            if not link.up or self.flooding.stuck:
                continue  # stuck: measurement closes, but nothing reports
            average_delay = transmitter.take_delay()
            cost = self.metric.measured_cost(
                link, self._metric_state[link_id], average_delay
            )
            change = cost - self.flooding.advertised[link_id]
            if self._criterion[link_id].should_report(change):
                reported[link_id] = cost
        if reported:
            self.advertise(reported)

    def advertise(self, reported: Dict[int, int]) -> None:
        """Originate and flood one update carrying all our link costs.

        ``reported`` maps the links whose significance criterion fired
        (or that just went down or up) to their new costs.  Every other
        own link rides along at its last advertised cost, its criterion
        untouched: the update's packaging is per node, each link's
        reporting rule stays per link.
        """
        flooding = self.flooding
        if flooding.stuck:
            return  # a frozen control plane reports nothing
        advertised = flooding.advertised
        advertised.update(reported)
        update = flooding.originate(advertised.items())
        self.stats.update_originated(reported.items(), self.sim.now)
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_GENERATED,
                node=self.node_id, value=len(reported),
                data=lineage(update),
            )
        self._apply_update(update)
        flooding.flood(update, arrived_on=None)

    # ------------------------------------------------------------------
    # Route state
    # ------------------------------------------------------------------
    def flush_pending_updates(self) -> None:
        """Apply any buffered routing updates in one batched SPF pass."""
        pending_old = self._pending_old
        if not pending_old:
            return
        self._pending_old = {}
        # The table already holds the batch's final costs (written
        # eagerly as updates arrived); take them as the batch, then
        # rewind the table to the pre-batch values so the repair pass
        # computes the same old -> new diff it would have seen
        # unbatched, and let it write the finals back.  Both were
        # validated when they entered the table.
        costs = self.costs.costs
        batch = [(link_id, costs[link_id]) for link_id in pending_old]
        for link_id, old_cost in pending_old.items():
            costs[link_id] = old_cost
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, SPF_BATCH_REPAIR,
                node=self.node_id, value=len(batch),
            )
        if self.tree.update_costs(batch):
            # The next-hop table reflects the old tree; drop it and take
            # a new one on the next packet.  No-op batches leave the
            # tree -- and therefore the table -- untouched.
            self._table = None
        if self.router is not None:
            # The router shares our cost table (updated by the tree);
            # rebuild its equal-cost candidate sets.
            self.router.recompute()

    def _apply_update(self, update: RoutingUpdate) -> None:
        """Write an update's entries into the cost table.

        The table takes the update's own :attr:`~repro.routing.flooding.
        RoutingUpdate.table_costs` floats, shared with every other
        receiver.  Only entries that move a cost are buffered for the
        next SPF flush; a quiet link riding along at its last advertised
        cost leaves the table, and so the tree, as it was.
        """
        costs = self.costs.costs
        pending_old = self._pending_old
        for (link_id, _reported), cost in zip(
            update.costs, update.table_costs
        ):
            old = costs[link_id]
            if cost == old:
                continue
            if link_id not in pending_old:
                pending_old[link_id] = old
            # CostTable.__setitem__'s check, inline.
            if not cost >= 0:
                raise ValueError(f"link cost must be >= 0, got {cost}")
            costs[link_id] = cost
            self._forwarding = None

    # ------------------------------------------------------------------
    # Link failure / recovery
    # ------------------------------------------------------------------
    def local_link_down(self, link_id: int) -> None:
        """React to one of our own links dying: flush its queue, then the
        routing reacts.  (The caller flips the topology's ``up`` flag for
        both directions; each endpoint node reacts for its own.)"""
        self.transmitters[link_id].flush()
        self.on_link_change(link_id, False)

    def local_link_up(self, link_id: int) -> None:
        """React to one of our own links recovering."""
        self.on_link_change(link_id, True)

    def _report_link_change(self, link_id: int, up: bool) -> None:
        """SPF floods a dead link's unreachable cost.  A recovered link's
        metric state is re-created, so HN-SPF's ease-in applies: it
        re-enters service at its maximum cost and pulls traffic in
        gradually."""
        if not up:
            self.flooding.link_down(link_id)
            self.advertise({link_id: DOWN_COST})
            return
        self._init_link_state(self.network.link(link_id))
        self.advertise({link_id: self._metric_state[link_id].last_reported})
