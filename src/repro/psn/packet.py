"""Packets.

Two kinds travel the network: user data and routing updates.  The header
carries only the destination PSN -- the paper points out that destination-
based forwarding is possible *because* shortest paths are hereditary and
all PSNs share a consistent view of link costs.

Packets are the simulator's dominant allocation: one slotted object per
packet, created at injection and discarded at delivery (or at a drop),
with every hop touching it in between.  A packet holds only what the
run reads, and is its own entry in a link's flight (``arrive_s`` and
``hop_delay_s``, written when it is committed to the wire).  Callers construct them positionally -- the keyword form
costs twice as much -- and drop the last reference when the packet
dies; there is no freelist (docs/performance.md, "Compact per-flow
state" and "Packets and links that hold only what the run reads").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - routing.flooding builds packets
    from repro.routing.flooding import RoutingUpdate


class PacketKind(enum.Enum):
    """What a packet carries."""

    DATA = "data"
    ROUTING_UPDATE = "routing-update"
    #: Per-link acknowledgement of a routing update (Rosen's protocol).
    UPDATE_ACK = "update-ack"
    #: Ready For Next Message: end-to-end flow-control acknowledgement.
    RFNM = "rfnm"
    #: A 1969-style distance-vector exchange (neighbour-to-neighbour).
    DISTANCE_VECTOR = "distance-vector"


@dataclass(slots=True)
class Packet:
    """One packet in flight.

    Timestamps and the hop count exist purely for measurement; the
    forwarding plane reads only ``dst`` (and ``kind``).  Slotted: one of
    these exists per packet in flight, and every hop touches it.  The
    last three fields belong to the hop under way and are written by the
    transmitter (:mod:`repro.psn.interfaces`); the last two are not
    constructor arguments.
    """

    kind: PacketKind
    src: int
    dst: Optional[int]  # None for flooded updates (no single destination)
    size_bits: float
    created_s: float
    #: Routing update payload, present iff kind is ROUTING_UPDATE.
    update: Optional[RoutingUpdate] = None
    #: Distance-vector payload {dest: distance}, for DISTANCE_VECTOR.
    vector: Optional[dict] = None
    #: Hops traversed so far.
    hop_count: int = 0
    #: Set by the transmitter when the packet is queued on an output link.
    enqueued_s: float = 0.0
    #: When the packet reaches the far end of the link it was committed
    #: to (the transmitter's flight is ordered by it).  Unset until the
    #: packet's first commit.
    arrive_s: float = field(init=False, repr=False, compare=False)
    #: That hop's measured delay, fixed at commit: queueing + processing
    #: + transmission + propagation.  Only a data packet's is read.
    hop_delay_s: float = field(init=False, repr=False, compare=False)

    def __repr__(self) -> str:
        where = f"{self.src}->{self.dst}"
        return (
            f"<Packet {self.kind.value} {where} "
            f"{self.size_bits:.0f}b hops={self.hop_count}>"
        )


def acquire(
    kind: PacketKind,
    src: int,
    dst: Optional[int],
    size_bits: float,
    created_s: float,
    update: Optional[RoutingUpdate] = None,
) -> Packet:
    """A new packet.

    The package constructs its packets inline; this helper and
    :func:`release` stay for the benchmark's link drive
    (``perfbench/drives.py``), which was written against the retired
    freelist.
    """
    return Packet(kind, src, dst, size_bits, created_s, update)


def release(packet: Packet) -> None:
    """Nothing to do: a dead packet is freed with its last reference."""
