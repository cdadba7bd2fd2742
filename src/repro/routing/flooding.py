"""Routing-update flooding.

Routing updates carry *"only link cost information; no other routing
information is disseminated through the network"*.  Each update names the
reporting node, the link, the new cost and a per-(node, link) sequence
number; updates are flooded -- forwarded on every link except the one they
arrived on -- with duplicate suppression by sequence number, the essence of
Rosen's updating protocol [Rosen 1980].

:class:`FloodingState` is the pure protocol logic (what to accept, where
to forward); the DES-side transmission and per-hop delay live in
:mod:`repro.psn`.  Keeping the protocol pure makes it unit-testable
without a simulator.

Delivery is reliable, per link: every update sent on a link stays in
the node's retransmission ledger (:attr:`FloodingState.unacked`) until
the neighbour acknowledges it, and every received copy -- fresh or
duplicate -- is acknowledged, since a duplicate usually means our
earlier acknowledgement was lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.topology.graph import Network


@dataclass(frozen=True)
class RoutingUpdate:
    """One link-cost report, as flooded through the network.

    In the real ARPANET an update packages all of a PSN's local link
    costs; we flood one link per update (the per-link sequence-number
    space makes the two equivalent for protocol purposes and simpler to
    reason about).
    """

    origin: int
    link_id: int
    cost: int
    sequence: int
    #: Cached (origin, link_id); computed once, read on every accept,
    #: transmit and acknowledgement.
    _key: Tuple[int, int] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (self.origin, self.link_id))

    def key(self) -> Tuple[int, int]:
        """Identity of the sequence-number space this update lives in."""
        return self._key


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
        self._highest_seen: Dict[Tuple[int, int], int] = {}
        self._own_sequence: Dict[int, int] = {}
        #: Retransmission ledger: (link id, update key) -> (update, send
        #: time) for every update sent and not yet acknowledged.  A newer
        #: update for the same key replaces the older one in place, so
        #: the scan order is the order keys were first sent on a link.
        self.unacked: Dict[tuple, Tuple[RoutingUpdate, float]] = {}
        self.stats = FloodingStats()

    # ------------------------------------------------------------------
    # Origination
    # ------------------------------------------------------------------
    def originate(self, link_id: int, cost: int) -> RoutingUpdate:
        """Create a new update about one of this node's own links."""
        link = self.network.link(link_id)
        if link.src != self.node_id:
            raise ValueError(
                f"node {self.node_id} does not own link {link_id} "
                f"(owned by {link.src})"
            )
        sequence = self._own_sequence.get(link_id, 0) + 1
        self._own_sequence[link_id] = sequence
        update = RoutingUpdate(self.node_id, link_id, cost, sequence)
        # The originator has, by definition, seen its own update.
        self._highest_seen[update.key()] = sequence
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
        highest = self._highest_seen.get(update.key(), 0)
        if update.sequence <= highest:
            self.stats.duplicates += 1
            return False
        self._highest_seen[update.key()] = update.sequence
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

        A newer update for the same key supersedes any older one still
        awaiting its acknowledgement on this link.
        """
        self.unacked[(link_id, update.key())] = (update, now)

    def note_acked(
        self, link_id: Optional[int], update: RoutingUpdate
    ) -> None:
        """The neighbour behind ``link_id`` acknowledged ``update``.

        Retires the ledger entry unless it holds a newer sequence (the
        acknowledgement is for a copy that entry has since replaced).
        """
        entry = (link_id, update.key())
        pending = self.unacked.get(entry)
        if pending is not None and pending[0].sequence <= update.sequence:
            del self.unacked[entry]
