"""The PSN: forwarding, measurement, update generation, route maintenance.

Each :class:`Psn` owns the transmitters of its outgoing links, a private
cost table with an incrementally-maintained SPF tree, flooding state, and
per-link metric state.  A measurement process closes a ten-second
averaging interval per link, runs the metric, and floods an update when
the change is significant (or the 50-second cap expires).

Routing-update packets are processed the instant they are delivered --
*"routing update processing is a high priority process within the PSN"* --
which is exactly what makes all nodes shift their routes near-
simultaneously and fuels D-SPF's oscillation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.des import RandomStreams, Simulator
from repro.metrics.base import LinkMetric
from repro.metrics.queueing import service_time_s
from repro.obs.tracer import (
    DB_PURGED,
    NEIGHBOR_QUARANTINED,
    SPF_BATCH_REPAIR,
    UPDATE_ACCEPTED,
    UPDATE_ACKED,
    UPDATE_FLOODED,
    UPDATE_GENERATED,
    UPDATE_REJECTED,
    UPDATE_SUPPRESSED,
    Tracer,
)
from repro.psn.flow_control import RFNM_BITS, HostInterface
from repro.psn.interfaces import PROCESSING_DELAY_S, LinkTransmitter
from repro.psn.measurement import DelayAverager, SignificanceCriterion
from repro.psn.packet import Packet, PacketKind, acquire, release
from repro.routing.defense import DefensePolicy, NodeDefense
from repro.routing.flooding import FloodingState, RoutingUpdate
from repro.routing.multipath import MultipathRouter
from repro.routing.spf import UNREACHABLE, CostTable, SpfTree
from repro.routing.spf_cache import ForwardingTable, SpfCache
from repro.topology.graph import Link, Network
from repro.units import MEASUREMENT_INTERVAL_S

if TYPE_CHECKING:  # pragma: no cover - avoids a psn <-> sim import cycle
    from repro.sim.stats import StatsCollector

#: Hot-path aliases: one global load instead of two attribute chases.
_ROUTING_UPDATE = PacketKind.ROUTING_UPDATE
_UPDATE_ACK = PacketKind.UPDATE_ACK
_RFNM = PacketKind.RFNM

#: Update cost advertising a dead link (anything >= this maps to inf).
DOWN_COST = 2 ** 20

#: Forwarding hop limit; transient inconsistency can loop packets.
MAX_HOPS = 32

#: Size of a routing-update packet on the wire (bits).
UPDATE_PACKET_BITS = 1000.0

#: Size of a per-link update acknowledgement (bits).
ACK_PACKET_BITS = 200.0

#: How often unacknowledged updates are retransmitted (seconds).  Rosen's
#: protocol retransmits until the neighbour acknowledges or the line is
#: declared dead.
UPDATE_RETRANSMIT_S = 1.0


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
        The link metric in force (shared by all nodes).
    transmitters:
        This node's outgoing-link transmitters, keyed by link id.
    stats:
        The run-wide statistics collector.
    streams:
        Random streams (used to stagger measurement phases).
    costs:
        This node's private cost table, already holding every link's
        idle cost.  The simulation evaluates the metric once and hands
        each PSN a :meth:`~repro.routing.spf.CostTable.copy`.
    spf_cache:
        The network-wide :class:`~repro.routing.spf_cache.SpfCache`.
        Per-packet forwarding consults a next-hop table it hands out for
        the node's SPF tree: a new one after each burst of updates that
        moves the tree, its entries resolved on first lookup.  The
        equal-cost multipath router shares its Dijkstra trees through
        it.
    measurement_interval_s:
        The averaging period (paper: 10 s).
    defense_policy:
        Optional shared :class:`~repro.routing.defense.DefensePolicy`;
        when given, every received update is screened (cost bounds,
        sequence plausibility, per-neighbour rate limiting with
        quarantine) before it can touch the flooding database, and a
        periodic purge pass evicts entries not refreshed within the
        policy's age bound (the post-1980 self-stabilization).  ``None``
        (the default) allocates nothing and adds no checks.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` recording this node's
        control-plane events (update generation, flood forwarding,
        duplicate suppression, SPF repairs).  A disabled or absent
        tracer costs nothing: the emission sites hold ``None`` and the
        per-packet forwarding path is never traced at all.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        metric: LinkMetric,
        transmitters: Dict[int, LinkTransmitter],
        stats: "StatsCollector",
        streams: RandomStreams,
        costs: CostTable,
        spf_cache: SpfCache,
        measurement_interval_s: float = MEASUREMENT_INTERVAL_S,
        multipath_mode: Optional[str] = None,
        multipath_slack: float = 0.0,
        flow_control_window: Optional[int] = None,
        defense_policy: Optional[DefensePolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.metric = metric
        self.transmitters = transmitters
        self.stats = stats
        self.measurement_interval_s = measurement_interval_s
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

        self.costs = costs
        self.flooding = FloodingState(network, node_id)
        #: Byzantine-fault defense state (None = defenses off: no
        #: screening, no purge timer, nothing allocated).
        self.defense: Optional[NodeDefense] = None
        #: Adversarial stuck-node flag: while True the control plane is
        #: frozen -- incoming updates and acks are dropped on the floor
        #: (no ack, no application, no re-flood) and nothing originates.
        #: The data plane keeps forwarding on the frozen tables.
        self.control_stuck = False
        if defense_policy is not None:
            self.defense = NodeDefense(defense_policy, node_id, self.flooding)
            self.defense.on_quarantine = self._on_quarantine
            purge_interval = defense_policy.config.purge_interval_s
            if purge_interval > 0:
                sim.timers.every(
                    purge_interval, self._purge_tick,
                    first_fire_s=purge_interval,
                )
        self._metric_state: Dict[int, object] = {}
        self._averager: Dict[int, DelayAverager] = {}
        self._criterion: Dict[int, SignificanceCriterion] = {}
        self._advertised: Dict[int, int] = {}

        for link_id, transmitter in transmitters.items():
            link = network.link(link_id)
            self._init_link_state(link)
            transmitter.on_delay_sample = self._averager[link_id].add_sample
            # Everyone assumes idle costs at boot; advertise our real
            # initial (ease-in) costs so the network learns them.
            initial = metric.initial_cost(link)
            self.costs[link_id] = float(initial)
            self._advertised[link_id] = initial

        self.tree = SpfTree(network, node_id, self.costs)
        # Hot-path forwarding: a next-hop table for the tree, taken on
        # first use and dropped whenever a flushed burst of routing
        # updates moves the tree.  Its entries resolve on first lookup.
        self.spf_cache = spf_cache
        self._forwarding: Optional[ForwardingTable] = None
        # Batched SPF repair: updates land in this buffer and are applied
        # in one update_costs pass when the tree is next consulted.  The
        # *cost table* is written eagerly -- only the tree repair lags --
        # so reading ``psn.costs`` never depends on when this node last
        # forwarded a packet; ``_pending_old`` remembers each buffered
        # link's pre-batch cost so the flush can hand ``update_costs``
        # the true before/after diff.
        self._pending_updates: list = []
        self._pending_old: Dict[int, float] = {}
        # Optional extension: equal-cost multipath forwarding (the
        # remedy the paper's section 4.5 cites for few-large-flows
        # traffic).  The router shares our cost table and is rebuilt
        # with the tree when a burst of updates is flushed.
        self.router: Optional[MultipathRouter] = None
        if multipath_mode is not None:
            self.router = MultipathRouter(
                network, node_id, self.costs, mode=multipath_mode,
                slack=multipath_slack, cache=spf_cache,
            )
        offset = streams.uniform(
            f"psn-{node_id}-phase", 0.0, measurement_interval_s
        )
        # Periodic work rides the timer wheel: one heap entry per timer.
        self._measurement = sim.timers.every(
            measurement_interval_s,
            self._close_measurement_interval,
            first_fire_s=offset + measurement_interval_s,
        )
        # Reliable update delivery (Rosen's protocol): every update sent
        # on a link is retransmitted until the neighbour acknowledges it
        # (the ledger is ``self.flooding.unacked``).
        sim.timers.every(UPDATE_RETRANSMIT_S, self._retransmit_tick)
        # A booting PSN floods its links' initial (ease-in) costs --
        # otherwise the rest of the network would assume idle costs and
        # the ease-in would only exist in the owner's imagination.
        boot_jitter = streams.uniform(f"psn-{node_id}-boot", 0.0, 0.1)
        sim.call_in(boot_jitter, self._boot_advertise)

    def _boot_advertise(self) -> None:
        for link_id in self.transmitters:
            if self.network.link(link_id).up:
                self.advertise(link_id, self._advertised[link_id])

    def _init_link_state(self, link: Link) -> None:
        zero_load = (
            service_time_s(link.bandwidth_bps)
            + link.propagation_s
            + PROCESSING_DELAY_S
        )
        self._metric_state[link.link_id] = self.metric.create_state(link)
        self._averager[link.link_id] = DelayAverager(zero_load)
        self._criterion[link.link_id] = SignificanceCriterion(
            self.metric.change_threshold(link),
            measurement_interval_s=self.measurement_interval_s,
        )

    # ------------------------------------------------------------------
    # Packet plane
    # ------------------------------------------------------------------
    def inject(self, src: int, dst: int, size_bits: float) -> None:
        """Accept a locally generated message.

        With flow control enabled the message may wait in the host queue
        for window space; otherwise it enters the subnet immediately.
        """
        self.stats.packet_offered(self.sim.now)
        if self.host is not None:
            self.host.submit(dst, size_bits)
            return
        self._inject_now(dst, size_bits)

    def _inject_now(self, dst: int, size_bits: float) -> None:
        self.forward(acquire(
            PacketKind.DATA, self.node_id, dst, size_bits, self.sim.now,
        ))

    def receive(self, packet: Packet, via: Link) -> None:
        """Handle a packet delivered by a neighbour's transmitter.

        Every terminal fate (an update or ack consumed, a message or
        RFNM at its destination) releases the packet back to the
        freelist; transit packets pass to :meth:`forward`, which owns
        them from then on.
        """
        kind = packet.kind
        if kind is _ROUTING_UPDATE:
            self._handle_update(packet, via)
            release(packet)
            return
        if kind is _UPDATE_ACK:
            self._handle_ack(packet, via)
            release(packet)
            return
        if kind is _RFNM:
            if packet.dst == self.node_id:
                if self.host is not None:
                    self.host.on_rfnm(packet.src)
                release(packet)
            else:
                self.forward(packet)
            return
        if packet.dst == self.node_id:
            self.stats.packet_delivered(packet, self.sim.now)
            if self.host is not None:
                self._send_rfnm(packet)
            release(packet)
            return
        self.forward(packet)

    def _send_rfnm(self, delivered: Packet) -> None:
        """Acknowledge a delivered message back to its source PSN."""
        self.forward(acquire(
            PacketKind.RFNM, self.node_id, delivered.src,
            RFNM_BITS, self.sim.now,
        ))

    def forward(self, packet: Packet) -> None:
        """Single-path, destination-based forwarding."""
        if self._pending_updates:
            self.flush_pending_updates()
        if len(packet.trail) >= MAX_HOPS:
            self.stats.packet_dropped(packet, "hop-limit", self.sim.now)
            release(packet)
            return
        if self.router is not None:
            link_id = self.router.next_hop_link(packet.dst, src=packet.src)
        else:
            table = self._forwarding
            if table is None:
                table = self._forwarding = \
                    self.spf_cache.forwarding_table(self.tree)
            link_id = table[packet.dst]
        if link_id is None:
            self.stats.packet_dropped(packet, "unreachable", self.sim.now)
            release(packet)
            return
        self.transmitters[link_id].send(packet)

    # ------------------------------------------------------------------
    # Measurement / update generation
    # ------------------------------------------------------------------
    def _close_measurement_interval(self) -> None:
        for link_id, transmitter in self.transmitters.items():
            link = self.network.link(link_id)
            utilization = transmitter.take_utilization(
                self.measurement_interval_s
            )
            self.stats.utilization_sample(link_id, utilization, self.sim.now)
            if not link.up or self.control_stuck:
                continue  # stuck: measurement closes, but nothing reports
            average_delay = self._averager[link_id].take_average()
            cost = self.metric.measured_cost(
                link, self._metric_state[link_id], average_delay
            )
            change = cost - self._advertised[link_id]
            if self._criterion[link_id].should_report(change):
                self.advertise(link_id, cost)

    def advertise(self, link_id: int, cost: int) -> None:
        """Originate and flood an update about one of our own links."""
        if self.control_stuck:
            return  # a frozen control plane reports nothing
        update = self.flooding.originate(link_id, cost)
        self._advertised[link_id] = cost
        self.stats.update_originated(link_id, cost, self.sim.now)
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_GENERATED,
                node=self.node_id, link=link_id, value=cost,
                data={"origin": update.origin, "seq": update.sequence},
            )
        self._apply_update(update)
        self._flood(update, arrived_on=None)

    # ------------------------------------------------------------------
    # Update plane
    # ------------------------------------------------------------------
    def _handle_update(self, packet: Packet, via: Link) -> None:
        update = packet.update
        if update is None:
            raise ValueError(f"routing-update packet without payload: {packet}")
        if self.control_stuck:
            return  # frozen control plane: no ack, no apply, no forward
        # Acknowledge on the reverse link -- duplicates too, since the
        # duplicate usually means our earlier ACK was lost.
        ack_on = self.flooding.note_received(via.link_id, update)
        if ack_on is not None:
            self.transmitters[ack_on].send(acquire(
                PacketKind.UPDATE_ACK, self.node_id, via.src,
                ACK_PACKET_BITS, self.sim.now, update=update,
            ))
        if self.defense is not None:
            # Screen *before* accept, so a rejected update never touches
            # the flooding database.  It was still ACKed above: the ack
            # only says "stop retransmitting", not "I believed you" --
            # and without it a quarantined neighbour's retransmissions
            # would themselves become an update storm.
            reason = self.defense.screen(update, via.src, self.sim.now)
            if reason is not None:
                if self._trace is not None:
                    self._trace.emit(
                        self.sim.now, UPDATE_REJECTED,
                        node=self.node_id, link=update.link_id,
                        data={"reason": reason, "origin": update.origin,
                              "seq": update.sequence, "from": via.src},
                    )
                return
        if not self.flooding.accept(update):
            if self._trace is not None:
                self._trace.emit(
                    self.sim.now, UPDATE_SUPPRESSED,
                    node=self.node_id, link=update.link_id,
                    data={"origin": update.origin, "seq": update.sequence},
                )
            return
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_ACCEPTED,
                node=self.node_id, link=update.link_id, value=update.cost,
                data={"origin": update.origin, "seq": update.sequence},
            )
        if self.defense is not None:
            self.defense.note_accepted(update, self.sim.now)
        self._apply_update(update)
        self._flood(update, arrived_on=via.link_id)

    def _handle_ack(self, packet: Packet, via: Link) -> None:
        update = packet.update
        if update is None:
            raise ValueError(f"update-ack packet without payload: {packet}")
        if self.control_stuck:
            return
        # The ACK arrived on the reverse of the link we sent the update on.
        sent_on = via.reverse_id
        self.flooding.note_acked(sent_on, update)
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_ACKED,
                node=self.node_id, link=update.link_id,
                data={"origin": update.origin, "seq": update.sequence,
                      "on": sent_on},
            )

    def _retransmit_tick(self) -> None:
        unacked = self.flooding.unacked
        if not unacked or self.control_stuck:
            return
        now = self.sim.now
        overdue: Dict[int, list] = {}
        for (link_id, _key), (update, sent_at) in unacked.items():
            if now - sent_at >= UPDATE_RETRANSMIT_S:
                overdue.setdefault(link_id, []).append(update)
        for link_id, updates in overdue.items():
            if not self.network.link(link_id).up:
                continue
            if self.transmitters[link_id].control_backlog() > 0:
                # The originals (or a burst of other updates) have
                # not even left our own queue yet; retransmitting
                # now would only feed a control-channel congestion
                # collapse on slow lines.  Wait for the queue to
                # drain -- the ACK clock only matters once the
                # packets have actually been on the wire.
                continue
            # The queue is drained: retransmit this link's whole
            # overdue batch (the real protocol carried all of a
            # node's pending costs in a single update packet).
            for update in updates:
                self._transmit_update(update, link_id)
                self.flooding.stats.retransmitted += 1

    def flush_pending_updates(self) -> None:
        """Apply any buffered routing updates in one batched SPF pass."""
        pending = self._pending_updates
        if not pending:
            return
        self._pending_updates = []
        # The table already holds the batch's final costs (written
        # eagerly as updates arrived); rewind it to the pre-batch values
        # so the repair pass computes the same old -> new diff it would
        # have seen unbatched, then let it write the finals back.  The
        # old values were validated when they entered the table.
        costs = self.costs.costs
        for link_id, old_cost in self._pending_old.items():
            costs[link_id] = old_cost
        self._pending_old.clear()
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, SPF_BATCH_REPAIR,
                node=self.node_id, value=len(pending),
            )
        if self.tree.update_costs(pending):
            # The next-hop table reflects the old tree; drop it and take
            # a new one on the next packet.  No-op batches leave the
            # tree -- and therefore the table -- untouched.
            self._forwarding = None
        if self.router is not None:
            # The router shares our cost table (updated by the tree);
            # rebuild its equal-cost candidate sets.
            self.router.recompute()

    def _apply_update(self, update: RoutingUpdate) -> None:
        cost = UNREACHABLE if update.cost >= DOWN_COST else float(update.cost)
        if update.link_id not in self._pending_old:
            self._pending_old[update.link_id] = self.costs[update.link_id]
        self.costs[update.link_id] = cost
        self._pending_updates.append((update.link_id, cost))

    def _flood(self, update: RoutingUpdate, arrived_on: Optional[int]) -> None:
        links = self.flooding.forward_links(arrived_on)
        for link_id in links:
            self._transmit_update(update, link_id)
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, UPDATE_FLOODED,
                node=self.node_id, link=update.link_id, value=len(links),
                data={"origin": update.origin, "seq": update.sequence},
            )

    def _transmit_update(self, update: RoutingUpdate, link_id: int) -> None:
        """Send one update on one link, arming its retransmission."""
        packet = acquire(
            PacketKind.ROUTING_UPDATE, self.node_id, None,
            UPDATE_PACKET_BITS, self.sim.now, update=update,
        )
        self.flooding.note_sent(link_id, update, self.sim.now)
        self.transmitters[link_id].send(packet)

    # ------------------------------------------------------------------
    # Defenses / adversarial hooks
    # ------------------------------------------------------------------
    def _on_quarantine(self, neighbor: int, until_s: float) -> None:
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, NEIGHBOR_QUARANTINED,
                node=self.node_id, value=until_s,
                data={"neighbor": neighbor},
            )

    def _purge_tick(self) -> None:
        """Periodic purge-and-reflood self-stabilization pass.

        Evicts flooding-database entries not refreshed within the
        policy's age bound; the 50-second re-advertisement cap refloods
        honest entries within one cap interval (see
        :mod:`repro.routing.defense`).
        """
        purged = self.defense.purge(self.sim.now)
        if purged and self._trace is not None:
            self._trace.emit(
                self.sim.now, DB_PURGED,
                node=self.node_id, value=float(purged),
            )

    def set_control_stuck(self, stuck: bool) -> None:
        """Freeze or thaw the control plane (the stuck-node fault)."""
        self.control_stuck = stuck

    def emit_forged_update(
        self,
        link_id: int,
        cost: int,
        sequence: Optional[int] = None,
    ) -> RoutingUpdate:
        """Adversarial harness: flood a forged update about one own link.

        With ``sequence=None`` the update is protocol-legal -- it spends
        a real sequence number from the origination counter (the
        babbling-node fault: well-formed, just far too frequent).  With
        an explicit ``sequence`` the forgery bypasses the counter
        entirely (the corrupt-update fault: the counter keeps its honest
        value, so legitimate later updates carry *smaller* sequence
        numbers than the forgery -- exactly the 1980 poisoning).
        Neither path touches ``_advertised`` or the origination stats:
        forged traffic is the fault, not a report.
        """
        if sequence is None:
            update = self.flooding.originate(link_id, cost)
        else:
            update = RoutingUpdate(self.node_id, link_id, cost, sequence)
        self._flood(update, arrived_on=None)
        return update

    # ------------------------------------------------------------------
    # Link failure / recovery
    # ------------------------------------------------------------------
    def local_link_down(self, link_id: int) -> None:
        """React to one of our own links dying.

        Flush its queue and flood an unreachable-cost update.  (The
        caller flips the topology's ``up`` flag for both directions;
        each endpoint node reports its own direction.)
        """
        self.transmitters[link_id].flush()
        # Updates awaiting ACKs on the dead link will never be ACKed;
        # the neighbour will re-learn everything when the link returns.
        unacked = self.flooding.unacked
        for key in [k for k in unacked if k[0] == link_id]:
            del unacked[key]
        self.advertise(link_id, DOWN_COST)

    def local_link_up(self, link_id: int) -> None:
        """React to one of our own links recovering.

        Metric state is re-created, so HN-SPF's ease-in applies: the
        link re-enters service at its maximum cost and pulls traffic in
        gradually.
        """
        link = self.network.link(link_id)
        self._init_link_state(link)
        self.transmitters[link_id].on_delay_sample = \
            self._averager[link_id].add_sample
        self.advertise(link_id, self.metric.initial_cost(link))
