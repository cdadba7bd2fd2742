"""Routing-update flooding.

Routing updates carry *"only link cost information; no other routing
information is disseminated through the network"*.  Each update is one
PSN's report: the reporting node, a per-node sequence number, and one
``(link, cost)`` entry for every link the node owns -- the shape of the
IS-IS link-state PDU, one per system listing its neighbour entries.
Updates are flooded -- forwarded on every link except the one they
arrived on -- with duplicate suppression by sequence number, the essence
of Rosen's updating protocol [Rosen 1980].

:class:`FloodingState` is the pure protocol logic (what to accept, where
to forward); the DES-side transmission and per-hop delay live in
:mod:`repro.psn`.  Keeping the protocol pure makes it unit-testable
without a simulator.

Delivery is reliable, per link: every update sent on a link stays in
the node's retransmission ledger (:attr:`FloodingState.unacked`) until
the neighbour acknowledges it, and every received copy -- fresh or
duplicate -- is acknowledged, since a duplicate usually means our
earlier acknowledgement was lost.  The ledger holds at most one update
per (link, origin): a node's newer report supersedes its older one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.graph import Network


@dataclass(frozen=True)
class RoutingUpdate:
    """One PSN's link-cost report, as flooded through the network.

    ``costs`` holds one ``(link_id, cost)`` entry per link ``origin``
    owns, a down link at the line-dead cost.  As in the ARPANET, a PSN
    sends all of its link costs in one update under one sequence number:
    Table 1 counts these per-node updates, so the report -- not the link
    -- is the unit of update traffic.
    """

    origin: int
    sequence: int
    costs: Tuple[Tuple[int, int], ...]


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
    """Per-node flooding protocol state.

    Parameters
    ----------
    network:
        Shared topology (used to enumerate forwarding links).
    node_id:
        The owning PSN.
    """

    def __init__(self, network: Network, node_id: int) -> None:
        self.network = network
        self.node_id = node_id
        #: origin node -> highest sequence number accepted from it.
        self._highest_seen: Dict[int, int] = {}
        #: Sequence number of this node's latest origination.
        self._own_sequence = 0
        #: Retransmission ledger: (link id, origin) -> (update, send
        #: time) for every update sent and not yet acknowledged.  A newer
        #: update from the same origin replaces the older one in place,
        #: so the scan order is the order origins were first sent on a
        #: link.
        self.unacked: Dict[Tuple[int, int], Tuple[RoutingUpdate, float]] = {}
        self.stats = FloodingStats()

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

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def accept(self, update: RoutingUpdate) -> bool:
        """Decide whether ``update`` is new; record it if so.

        Returns ``True`` exactly when the update should be applied to the
        local cost table and forwarded onward.
        """
        if update.sequence <= self._highest_seen.get(update.origin, 0):
            self.stats.duplicates += 1
            return False
        self._highest_seen[update.origin] = update.sequence
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
        links = [
            link.link_id for link in self.network.out_links(self.node_id)
            if link.link_id != excluded
        ]
        self.stats.forwarded += len(links)
        return links

    # ------------------------------------------------------------------
    # Reliable delivery
    # ------------------------------------------------------------------
    def note_received(
        self, link_id: int, update: RoutingUpdate
    ) -> Optional[int]:
        """``update`` arrived on ``link_id``: the link to acknowledge on.

        Every copy is acknowledged, fresh or duplicate, so the answer
        depends only on the circuit: the reverse link, or ``None`` when
        the link is simplex or its reverse is down.
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
        self.unacked[(link_id, update.origin)] = (update, now)

    def note_acked(
        self, link_id: Optional[int], update: RoutingUpdate
    ) -> None:
        """The neighbour behind ``link_id`` acknowledged ``update``.

        Retires the ledger entry unless it holds a newer sequence (the
        acknowledgement is for a copy that entry has since replaced).
        """
        entry = (link_id, update.origin)
        pending = self.unacked.get(entry)
        if pending is not None and pending[0].sequence <= update.sequence:
            del self.unacked[entry]
