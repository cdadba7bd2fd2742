"""Packets, and the packet freelist.

Two kinds travel the network: user data and routing updates.  The header
carries only the destination PSN -- the paper points out that destination-
based forwarding is possible *because* shortest paths are hereditary and
all PSNs share a consistent view of link costs.

Packets are the simulator's dominant allocation: one slotted object per
packet, created at injection and discarded at delivery (or at a drop),
with every hop touching it in between.  :func:`acquire` / :func:`release`
turn that allocate-and-discard cycle into a bounded freelist -- a
released packet keeps its slots and is re-issued with a fresh packet
id, so the hot path stops exercising the allocator entirely once the
pool warms up.  Pooling is pure mechanics: ids still
come from one monotonic counter, field values are fully reset on
acquire, and nothing downstream retains packets past their release
points (the stats collector copies what it needs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count
from typing import List, Optional

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
    these exists per packet in flight, and every hop touches it.
    """

    packet_id: int
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

    def __repr__(self) -> str:
        where = f"{self.src}->{self.dst}"
        return (
            f"<Packet #{self.packet_id} {self.kind.value} {where} "
            f"{self.size_bits:.0f}b hops={self.hop_count}>"
        )


# ----------------------------------------------------------------------
# Freelist
# ----------------------------------------------------------------------

#: Network-wide packet id counter (shared by pooled and direct
#: construction, so ids stay unique and monotonic either way).
_packet_ids = count()

#: Released packets awaiting reuse.  Bounded: a transient burst (a boot
#: flood's control backlog) cannot pin an unbounded object graph.
_POOL: List[Packet] = []
_POOL_LIMIT = 8192

#: Packets currently sitting in the pool, by id(); guards against the
#: one bug class freelists introduce -- a double release would otherwise
#: hand the same object to two owners.
_pooled_ids: set = set()


def acquire(
    kind: PacketKind,
    src: int,
    dst: Optional[int],
    size_bits: float,
    created_s: float,
    update: Optional[RoutingUpdate] = None,
) -> Packet:
    """A fresh packet, recycled from the pool when one is available."""
    if _POOL:
        packet = _POOL.pop()
        _pooled_ids.discard(id(packet))
        packet.packet_id = next(_packet_ids)
        packet.kind = kind
        packet.src = src
        packet.dst = dst
        packet.size_bits = size_bits
        packet.created_s = created_s
        packet.update = update
        packet.vector = None
        packet.hop_count = 0
        packet.enqueued_s = 0.0
        return packet
    return Packet(
        packet_id=next(_packet_ids),
        kind=kind,
        src=src,
        dst=dst,
        size_bits=size_bits,
        created_s=created_s,
        update=update,
    )


def release(packet: Packet) -> None:
    """Return a dead packet to the pool.

    Callers own the packet at exactly one point (delivery, drop,
    suppression, flush); releasing twice is a bug and raises.
    """
    key = id(packet)
    if key in _pooled_ids:
        raise RuntimeError(f"double release of {packet!r}")
    if len(_POOL) >= _POOL_LIMIT:
        return
    packet.update = None
    packet.vector = None
    _pooled_ids.add(key)
    _POOL.append(packet)
