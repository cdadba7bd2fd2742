"""Rosen's updating protocol: one PSN's half of routing-update flooding.

Routing updates carry *"only link cost information; no other routing
information is disseminated through the network"*.  Each update is one
PSN's report: the reporting node, a per-node sequence number, and one
``(link, cost)`` entry for every link the node owns -- the shape of the
IS-IS link-state PDU, one per system listing its neighbour entries.
Updates are flooded -- forwarded on every link except the one they
arrived on -- with duplicate suppression by sequence number, the essence
of Rosen's updating protocol [Rosen 1980].

:class:`FloodingState` is the whole per-node protocol: sequence numbers,
acks, the defense screen, accept / apply / re-flood, the retransmit and
purge ticks, the stuck-node freeze and the forged-update hook.  It needs
no simulator: the owning :class:`~repro.psn.node.Psn` hands it a clock,
its transmitters and the function that writes an update into its routes.

Delivery is reliable, per link: every update sent on a link stays in
the node's retransmission ledger (:attr:`FloodingState.unacked`) until
the neighbour acknowledges it, and every received copy -- fresh or
duplicate -- is acknowledged, since a duplicate usually means our
earlier acknowledgement was lost.  The ledger holds at most one update
per (link, origin): a node's newer report supersedes its older one.
It is keyed by one int per pair (:meth:`FloodingState.ledger_key`), and
every copy of one flood shares one ``(update, send time)`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import (
    DB_PURGED,
    NEIGHBOR_QUARANTINED,
    UPDATE_ACCEPTED,
    UPDATE_ACKED,
    UPDATE_FLOODED,
    UPDATE_REJECTED,
    UPDATE_SUPPRESSED,
    Tracer,
)
from repro.psn.packet import Packet, PacketKind
from repro.routing.defense import DefensePolicy, NodeDefense
from repro.routing.spf import UNREACHABLE
from repro.topology.graph import Link, Network
from repro.units import DOWN_COST

_ROUTING_UPDATE = PacketKind.ROUTING_UPDATE
_UPDATE_ACK = PacketKind.UPDATE_ACK

#: Size of a routing-update packet on the wire (bits).
UPDATE_PACKET_BITS = 1000.0

#: Size of a per-link update acknowledgement (bits).
ACK_PACKET_BITS = 200.0

#: How often unacknowledged updates are retransmitted (seconds).  Rosen's
#: protocol retransmits until the neighbour acknowledges or the line is
#: declared dead.
UPDATE_RETRANSMIT_S = 1.0


@dataclass(frozen=True)
class RoutingUpdate:
    """One PSN's link-cost report, as flooded through the network.

    ``costs`` holds one ``(link_id, cost)`` entry per link ``origin``
    owns, a down link at the line-dead cost.  As in the ARPANET, a PSN
    sends all of its link costs in one update under one sequence number:
    Table 1 counts these per-node updates, so the report -- not the link
    -- is the unit of update traffic.

    ``table_costs`` holds each entry's cost as a cost-table value
    (``inf`` for the line-dead cost), converted once here: every
    receiver writes these same floats into its table instead of
    allocating its own.  ``costs`` stays in routing units, which is what
    the defense screen and the trace read.
    """

    origin: int
    sequence: int
    costs: Tuple[Tuple[int, int], ...]
    table_costs: Tuple[float, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "table_costs", tuple(
            UNREACHABLE if cost >= DOWN_COST else float(cost)
            for _link_id, cost in self.costs
        ))


#: A flood plan: the transmitter to acknowledge on (``None``: no ack)
#: and the ``(link id, transmitter)`` pairs that get a copy.
_Plan = Tuple[Optional[object], Tuple[Tuple[int, object], ...]]


def lineage(update: RoutingUpdate, **extra) -> dict:
    """Trace tags naming one update: origin, sequence, entry count."""
    return {
        "origin": update.origin, "seq": update.sequence,
        "entries": len(update.costs), **extra,
    }


@dataclass
class FloodingStats:
    """Counters for update traffic seen by one node."""

    generated: int = 0
    accepted: int = 0
    duplicates: int = 0
    forwarded: int = 0
    #: Updates retransmitted by the reliability timer (unacked past the
    #: retransmission period).
    retransmitted: int = 0


class FloodingState:
    """One PSN's update protocol.

    ``clock`` is anything with ``now`` (the simulator); ``transmitters``
    is the wire, link id -> an object with ``send(packet)`` and
    ``control_backlog()``; ``apply(update)`` writes an accepted update
    into the owner's routes before it is re-flooded.  A shared
    :class:`~repro.routing.defense.DefensePolicy` screens every received
    update before it can touch the database and arms :meth:`purge_tick`;
    a disabled or absent ``tracer`` leaves the emission sites ``None``.
    The pure decisions (:meth:`originate`, :meth:`accept`,
    :meth:`forward_links`, the ``note_*`` ledger calls) need only the
    first two arguments.  The owner registers the ticks.

    An update hop runs on a *flood plan*, one per arrival link (``None``
    for origination): the transmitter to acknowledge on (or ``None``)
    and the ``(link id, transmitter)`` pairs to send copies on.  A plan
    is built from :meth:`note_received` and :meth:`forward_links` -- the
    one definition of who is acked and where copies go -- and kept until
    the network's ``topology_version`` moves, so a received update costs
    one dictionary lookup instead of re-deriving both per copy.

    The sequence record is one list indexed by origin node id, 0 for
    an origin with nothing on record (sequences start at 1): the
    defense screen's absent-origin door and its purge read and write 0.
    """

    def __init__(
        self, network: Network, node_id: int, clock=None,
        transmitters: Optional[Dict[int, object]] = None,
        apply: Optional[Callable[[RoutingUpdate], None]] = None,
        defense_policy: Optional[DefensePolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.network = network
        self.node_id = node_id
        self.clock = clock
        self.transmitters = transmitters
        self.apply = apply
        self._trace: Optional[Tracer] = (
            tracer if tracer is not None and tracer.enabled else None
        )
        #: Per origin node id, the highest sequence number accepted from
        #: it; 0 means nothing on record (sequences start at 1).
        self._highest_seen: List[int] = [0] * len(network.nodes)
        #: Sequence number of this node's latest origination.
        self._own_sequence = 0
        #: Retransmission ledger: :meth:`ledger_key` ``(link id,
        #: origin)`` -> ``(update, send time)`` for every update sent and
        #: not yet acknowledged.  The copies of one flood share one value
        #: tuple.  A newer update from the same origin replaces the older
        #: one in place, so the scan order is the order origins were
        #: first sent on a link.  :meth:`retransmit_tick` replaces a
        #: drained ledger with a fresh dict, so hold ``unacked`` by this
        #: attribute only.
        self.unacked: Dict[int, Tuple[RoutingUpdate, float]] = {}
        #: The ledger key's link stride: one slot per origin node id.
        self._origins = len(network.nodes)
        self.stats = FloodingStats()
        #: Own link -> the cost this node last advertised for it.
        self.advertised: Dict[int, int] = {}
        #: Stuck-node fault: while True incoming updates and acks are
        #: dropped (no ack, apply or re-flood) and nothing originates.
        self.stuck = False
        #: Arrival link (None: origination) -> flood plan, valid for
        #: the network's topology version ``_plans_version``.
        self._plans: Dict[Optional[int], _Plan] = {}
        self._plans_version = -1
        #: Byzantine-fault defense state (None = defenses off).
        self.defense: Optional[NodeDefense] = None
        if defense_policy is not None:
            self.defense = NodeDefense(defense_policy, node_id, self)
            self.defense.on_quarantine = self._on_quarantine

    @property
    def sequence(self) -> int:
        """Sequence number of this node's latest origination."""
        return self._own_sequence

    def highest_seen(self, origin: int) -> int:
        """Highest sequence on record from ``origin`` (0: none)."""
        return self._highest_seen[origin]

    def ledger_key(self, link_id: int, origin: int) -> int:
        """The :attr:`unacked` key of ``origin``'s update on ``link_id``."""
        return link_id * self._origins + origin

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def originate(self, costs: Sequence[Tuple[int, int]]) -> RoutingUpdate:
        """Create this node's next update from its ``(link, cost)`` entries."""
        for link_id, _cost in costs:
            owner = self.network.link(link_id).src
            if owner != self.node_id:
                raise ValueError(
                    f"node {self.node_id} does not own link {link_id} "
                    f"(owned by {owner})"
                )
        self._own_sequence += 1
        update = RoutingUpdate(self.node_id, self._own_sequence, tuple(costs))
        # The originator has, by definition, seen its own update.
        self._highest_seen[self.node_id] = self._own_sequence
        self.stats.generated += 1
        return update

    def forge(
        self, forged: Optional[Dict[int, int]] = None,
        sequence: Optional[int] = None,
    ) -> RoutingUpdate:
        """Adversarial harness: flood a forged update from this node.

        The update carries :attr:`advertised` with the ``forged``
        entries (link -> cost) written over them.  With ``sequence=None``
        it spends a real sequence number (the babbling-node fault:
        well-formed, just far too frequent); an explicit ``sequence``
        bypasses the counter (the corrupt-update fault: honest later
        updates then carry *smaller* sequences -- the 1980 poisoning).
        Forged traffic is the fault, not a report: it ignores
        :attr:`stuck` and touches neither :attr:`advertised` nor the
        owner's routes.
        """
        costs = dict(self.advertised)
        if forged:
            costs.update(forged)
        if sequence is None:
            update = self.originate(costs.items())
        else:
            update = RoutingUpdate(
                self.node_id, sequence, tuple(costs.items())
            )
        self.flood(update, arrived_on=None)
        return update

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def accept(self, update: RoutingUpdate) -> bool:
        """Decide whether ``update`` is new; record it if so.

        Returns ``True`` exactly when the update should be applied to the
        local cost table and forwarded onward.
        """
        highest_seen = self._highest_seen
        if update.sequence <= highest_seen[update.origin]:
            self.stats.duplicates += 1
            return False
        highest_seen[update.origin] = update.sequence
        self.stats.accepted += 1
        return True

    def forward_links(self, arrived_on: Optional[int]) -> List[int]:
        """Link ids an accepted update must be re-flooded on.

        Every up link out of this node except the reverse of the link it
        arrived on (sending it straight back is pure waste; other
        duplicates are caught by sequence numbers).
        """
        excluded = None
        if arrived_on is not None:
            excluded = self.network.link(arrived_on).reverse_id
        return [
            link.link_id for link in self.network.out_links(self.node_id)
            if link.link_id != excluded
        ]

    def _plan(self, arrived_on: Optional[int]) -> _Plan:
        """The flood plan for an update arriving on ``arrived_on``."""
        version = self.network.topology_version
        if self._plans_version != version:
            self._plans = {}
            self._plans_version = version
        plan = self._plans.get(arrived_on)
        if plan is None:
            transmitters = self.transmitters
            ack_on = None
            if arrived_on is not None:
                ack_on = self.note_received(arrived_on, None)
            plan = self._plans[arrived_on] = (
                None if ack_on is None else transmitters[ack_on],
                tuple(
                    (link_id, transmitters[link_id])
                    for link_id in self.forward_links(arrived_on)
                ),
            )
        return plan

    def receive_update(self, packet: Packet, via: Link) -> None:
        """Ack, screen, accept, apply and re-flood one delivered update."""
        update = packet.update
        if update is None:
            raise ValueError(f"routing-update packet without payload: {packet}")
        if self.stuck:
            return  # frozen control plane: no ack, no apply, no forward
        now = self.clock.now
        ack, copies = self._plan(via.link_id)
        # Acknowledge on the reverse link -- duplicates too, since the
        # duplicate usually means our earlier ACK was lost.
        if ack is not None:
            ack.send(Packet(
                _UPDATE_ACK, self.node_id, via.src, ACK_PACKET_BITS, now,
                update,
            ))
        defense = self.defense
        if defense is not None:
            # Screen *before* accept, so a rejected update never touches
            # the database.  It was still ACKed above: the ack only says
            # "stop retransmitting", not "I believed you" -- and without
            # it a quarantined neighbour's retransmissions would
            # themselves become an update storm.
            reason = defense.screen(update, via.src, now)
            if reason is not None:
                if self._trace is not None:
                    self._emit(UPDATE_REJECTED, update,
                               **{"reason": reason, "from": via.src})
                return
        if not self.accept(update):
            if self._trace is not None:
                self._emit(UPDATE_SUPPRESSED, update)
            return
        if self._trace is not None:
            self._emit(UPDATE_ACCEPTED, update)
        self.apply(update)
        self._send_copies(update, copies, now)

    def receive_ack(self, packet: Packet, via: Link) -> None:
        """Retire the ledger entry a delivered acknowledgement names."""
        update = packet.update
        if update is None:
            raise ValueError(f"update-ack packet without payload: {packet}")
        if self.stuck:
            return
        # The ACK arrived on the reverse of the link we sent the update on.
        sent_on = via.reverse_id
        self.note_acked(sent_on, update)
        if self._trace is not None:
            self._emit(UPDATE_ACKED, update, on=sent_on)

    # ------------------------------------------------------------------
    # Transmission and reliable delivery
    # ------------------------------------------------------------------
    def flood(self, update: RoutingUpdate, arrived_on: Optional[int]) -> None:
        """Send ``update`` on every link :meth:`forward_links` names."""
        self._send_copies(update, self._plan(arrived_on)[1], self.clock.now)

    def _send_copies(
        self, update: RoutingUpdate, copies: Tuple[Tuple[int, object], ...],
        now: float,
    ) -> None:
        """Send one copy of ``update`` per plan entry; count them.

        Every copy's ledger entry (the write :meth:`note_sent` defines)
        holds the same ``(update, now)`` value.
        """
        entry = (update, now)
        unacked = self.unacked
        stride = self._origins
        origin = update.origin
        node_id = self.node_id
        for link_id, transmitter in copies:
            packet = Packet(
                _ROUTING_UPDATE, node_id, None, UPDATE_PACKET_BITS, now,
                update,
            )
            unacked[link_id * stride + origin] = entry
            transmitter.send(packet)
        self.stats.forwarded += len(copies)
        if self._trace is not None:
            self._emit(UPDATE_FLOODED, update, value=len(copies))

    def note_received(
        self, link_id: int, update: Optional[RoutingUpdate]
    ) -> Optional[int]:
        """``update`` arrived on ``link_id``: the link to acknowledge on.

        Every copy is acknowledged, fresh or duplicate, so the answer
        depends only on the circuit (a flood plan asks with ``update``
        ``None``): the reverse link, or ``None`` when the link is
        simplex or its reverse is down.
        """
        reverse_id = self.network.link(link_id).reverse_id
        if reverse_id is None or not self.network.link(reverse_id).up:
            return None
        return reverse_id

    def note_sent(
        self, link_id: int, update: RoutingUpdate, now: float
    ) -> None:
        """``update`` was queued on ``link_id`` at ``now``: arm its entry.

        A newer update from the same origin supersedes any older one
        still awaiting its acknowledgement on this link.
        """
        self.unacked[self.ledger_key(link_id, update.origin)] = (update, now)

    def note_acked(self, link_id: int, update: RoutingUpdate) -> None:
        """The neighbour behind ``link_id`` acknowledged ``update``.

        Retires the ledger entry unless it holds a newer sequence (the
        acknowledgement is for a copy that entry has since replaced).
        """
        key = link_id * self._origins + update.origin
        pending = self.unacked.get(key)
        if pending is not None and pending[0].sequence <= update.sequence:
            del self.unacked[key]

    def retransmit_tick(self) -> None:
        """Resend every update unacknowledged for a retransmit period."""
        unacked = self.unacked
        if not unacked:
            # Dicts do not shrink on ``del``: a ledger drained after the
            # boot flood would keep its peak capacity for the whole run.
            self.unacked = {}
            return
        if self.stuck:
            return
        now = self.clock.now
        stride = self._origins
        overdue: Dict[int, list] = {}
        for key, (update, sent_at) in unacked.items():
            if now - sent_at >= UPDATE_RETRANSMIT_S:
                overdue.setdefault(key // stride, []).append(update)
        for link_id, updates in overdue.items():
            if not self.network.link(link_id).up:
                continue
            transmitter = self.transmitters[link_id]
            if transmitter.control_backlog() > 0:
                # The originals (or a burst of other updates) have
                # not even left our own queue yet; retransmitting
                # now would only feed a control-channel congestion
                # collapse on slow lines.  Wait for the queue to
                # drain -- the ACK clock only matters once the
                # packets have actually been on the wire.
                continue
            # The queue is drained: retransmit this link's whole
            # overdue batch, one update per origin, each carrying all
            # of that node's link costs in one packet.
            for update in updates:
                packet = Packet(
                    _ROUTING_UPDATE, self.node_id, None, UPDATE_PACKET_BITS,
                    now, update,
                )
                self.note_sent(link_id, update, now)
                transmitter.send(packet)
                self.stats.retransmitted += 1

    def link_down(self, link_id: int) -> None:
        """Drop a dead link's ledger entries: they would never be acked,
        and the neighbour re-learns everything when the link returns."""
        stride = self._origins
        for key in [k for k in self.unacked if k // stride == link_id]:
            del self.unacked[key]

    # ------------------------------------------------------------------
    # Defenses
    # ------------------------------------------------------------------
    def purge_tick(self) -> None:
        """One purge-and-reflood pass (see :mod:`repro.routing.defense`)."""
        purged = self.defense.purge(self.clock.now)
        if purged and self._trace is not None:
            self._trace.emit(
                self.clock.now, DB_PURGED,
                node=self.node_id, value=float(purged),
            )

    def _on_quarantine(self, neighbor: int, until_s: float) -> None:
        if self._trace is not None:
            self._trace.emit(
                self.clock.now, NEIGHBOR_QUARANTINED,
                node=self.node_id, value=until_s,
                data={"neighbor": neighbor},
            )

    def _emit(self, kind: str, update: RoutingUpdate, value=None, **extra):
        self._trace.emit(
            self.clock.now, kind, node=self.node_id, value=value,
            data=lineage(update, **extra),
        )
