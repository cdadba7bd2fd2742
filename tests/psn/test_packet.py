"""Packets: fresh fields on every new packet, and no packet id."""

from repro.psn.packet import Packet, PacketKind, acquire


def test_acquire_builds_a_fresh_packet():
    first = Packet(PacketKind.DATA, 0, 3, 1000.0, 1.0)
    first.hop_count = 7
    second = acquire(PacketKind.UPDATE_ACK, 2, 5, 200.0, 4.0)
    assert second is not first
    assert second.kind is PacketKind.UPDATE_ACK
    assert (second.src, second.dst) == (2, 5)
    assert (second.size_bits, second.created_s) == (200.0, 4.0)
    assert second.hop_count == 0 and second.update is None
    assert second.vector is None and second.enqueued_s == 0.0
    assert not hasattr(second, "packet_id")
