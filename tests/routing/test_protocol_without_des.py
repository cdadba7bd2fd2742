"""Rosen's protocol run without a simulator: lists for the wire and a
namespace for the clock."""

from types import SimpleNamespace

from repro.psn.packet import PacketKind
from repro.routing.flooding import UPDATE_RETRANSMIT_S, FloodingState
from repro.topology import build_ring_network


class Wire:
    """One outgoing link: records what it is sent and never backs up."""

    def __init__(self):
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)

    def control_backlog(self):
        return 0


def _protocol(network, node, clock, applied):
    wires = {link.link_id: Wire() for link in network.out_links(node)}
    return FloodingState(network, node, clock, wires, applied.append), wires


def test_only_the_lost_copy_is_retransmitted():
    network = build_ring_network(3)
    clock = SimpleNamespace(now=0.0)
    a, a_wires = _protocol(network, 0, clock, [])
    delivered, lost = network.out_links(0)
    applied = []
    b, b_wires = _protocol(network, delivered.dst, clock, applied)

    update = a.originate([(l.link_id, 30) for l in network.out_links(0)])
    a.flood(update, arrived_on=None)
    assert set(a.unacked) == {(delivered.link_id, 0), (lost.link_id, 0)}

    [copy] = a_wires[delivered.link_id].sent  # the other copy is lost
    b.receive_update(copy, via=delivered)
    [ack] = b_wires[delivered.reverse_id].sent
    assert ack.kind is PacketKind.UPDATE_ACK
    clock.now = 0.5
    a.receive_ack(ack, via=network.link(delivered.reverse_id))
    assert set(a.unacked) == {(lost.link_id, 0)}

    clock.now = UPDATE_RETRANSMIT_S
    a.retransmit_tick()
    assert len(a_wires[delivered.link_id].sent) == 1
    assert [p.update for p in a_wires[lost.link_id].sent] == [update] * 2
    assert a.stats.retransmitted == 1
    assert applied == [update]
