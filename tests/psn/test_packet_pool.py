"""The packet freelist: recycling mechanics.

Pooling is pure mechanics -- ids stay monotonic, fields fully reset on
acquire, double release raises.
"""

import pytest

from repro.des import Simulator
from repro.psn import LinkTransmitter
from repro.psn.packet import PacketKind, acquire, release
from repro.topology import Network, line_type


def _link():
    network = Network()
    a, b = network.add_node().node_id, network.add_node().node_id
    link, _ = network.add_circuit(a, b, line_type("56K-T"), 0.010)
    return Simulator(), link


def _data(link, now=0.0):
    return acquire(PacketKind.DATA, link.src, link.dst, 1000.0, now)


def test_acquire_recycles_released_packet():
    packet = acquire(PacketKind.DATA, 0, 3, 1000.0, 1.0)
    packet.hop_count = 7
    first_id = packet.packet_id
    release(packet)

    recycled = acquire(PacketKind.UPDATE_ACK, 2, 5, 200.0, 4.0)
    assert recycled is packet, "the freelist must hand back the object"
    assert recycled.packet_id > first_id, "ids stay monotonic across reuse"
    assert recycled.kind is PacketKind.UPDATE_ACK
    assert (recycled.src, recycled.dst) == (2, 5)
    assert recycled.hop_count == 0 and recycled.update is None
    assert recycled.enqueued_s == 0.0


def test_double_release_raises():
    packet = acquire(PacketKind.DATA, 0, 1, 1000.0, 0.0)
    release(packet)
    with pytest.raises(RuntimeError, match="double release"):
        release(packet)


def test_overflow_drop_returns_packet_to_pool():
    sim, link = _link()
    seen = []
    tx = LinkTransmitter(
        sim, link, lambda p, l: None, buffer_packets=0,
        on_drop=lambda p, l: seen.append((p.packet_id, p.dst)),
    )
    assert tx.send(_data(link))
    dropped = _data(link)
    assert not tx.send(dropped)
    # on_drop read the packet before it went back to the freelist.
    assert seen == [(dropped.packet_id, link.dst)]
    assert _data(link) is dropped


def test_recycled_packet_starts_at_hop_zero():
    sim, link = _link()
    hops = []

    def deliver(packet, _link):
        hops.append(packet.hop_count)
        release(packet)

    packet = _data(link)
    LinkTransmitter(sim, link, deliver).send(packet)
    sim.run()
    assert hops == [1]
    recycled = _data(link, sim.now)
    assert recycled is packet and recycled.hop_count == 0
