"""The packet freelist: recycling mechanics.

Pooling is pure mechanics -- ids stay monotonic, fields fully reset on
acquire, double release raises.
"""

import pytest

from repro.psn.packet import PacketKind, acquire, release


def test_acquire_recycles_released_packet():
    packet = acquire(PacketKind.DATA, 0, 3, 1000.0, 1.0)
    packet.trail.append(7)
    first_id = packet.packet_id
    release(packet)

    recycled = acquire(PacketKind.UPDATE_ACK, 2, 5, 200.0, 4.0)
    assert recycled is packet, "the freelist must hand back the object"
    assert recycled.packet_id > first_id, "ids stay monotonic across reuse"
    assert recycled.kind is PacketKind.UPDATE_ACK
    assert (recycled.src, recycled.dst) == (2, 5)
    assert recycled.trail == [] and recycled.update is None
    assert recycled.enqueued_s == 0.0


def test_double_release_raises():
    packet = acquire(PacketKind.DATA, 0, 1, 1000.0, 0.0)
    release(packet)
    with pytest.raises(RuntimeError, match="double release"):
        release(packet)
