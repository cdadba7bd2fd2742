"""Rosen's protocol run without a simulator: lists for the wire and a
namespace for the clock."""

from types import SimpleNamespace

from repro.psn.packet import Packet, PacketKind
from repro.routing.flooding import (
    UPDATE_PACKET_BITS, UPDATE_RETRANSMIT_S, FloodingState, RoutingUpdate,
)
from repro.topology import build_grid_network, build_ring_network


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
    assert set(a.unacked) == {
        a.ledger_key(delivered.link_id, 0), a.ledger_key(lost.link_id, 0),
    }

    [copy] = a_wires[delivered.link_id].sent  # the other copy is lost
    b.receive_update(copy, via=delivered)
    [ack] = b_wires[delivered.reverse_id].sent
    assert ack.kind is PacketKind.UPDATE_ACK
    clock.now = 0.5
    a.receive_ack(ack, via=network.link(delivered.reverse_id))
    assert set(a.unacked) == {a.ledger_key(lost.link_id, 0)}

    clock.now = UPDATE_RETRANSMIT_S
    a.retransmit_tick()
    assert len(a_wires[delivered.link_id].sent) == 1
    assert [p.update for p in a_wires[lost.link_id].sent] == [update] * 2
    assert a.stats.retransmitted == 1
    assert applied == [update]


def test_the_flood_plan_follows_the_topology():
    """A copy arriving on a link is acked on ``note_received`` of it and
    re-flooded on exactly ``forward_links`` of it, through a failure of
    an out-link, of the arrival's own circuit, and both restores."""
    network = build_grid_network(3, 3)
    hub = 4  # the centre: four circuits
    clock = SimpleNamespace(now=0.0)
    state, wires = _protocol(network, hub, clock, [])
    arrival, spare = network.in_links(hub)[:2]
    sent = {link_id: 0 for link_id in wires}
    sequence = 0

    def hop():
        """Deliver a fresh update on ``arrival``: (acked on, copied on)."""
        nonlocal sequence
        sequence += 1
        update = RoutingUpdate(arrival.src, sequence, ())
        expected = (
            state.note_received(arrival.link_id, update),
            sorted(state.forward_links(arrival.link_id)),
        )
        state.receive_update(Packet(
            PacketKind.ROUTING_UPDATE, arrival.src, None, UPDATE_PACKET_BITS,
            clock.now, update,
        ), via=arrival)
        acked, copied = None, []
        for link_id, wire in wires.items():
            for packet in wire.sent[sent[link_id]:]:
                if packet.kind is PacketKind.UPDATE_ACK:
                    assert acked is None
                    acked = link_id
                else:
                    assert packet.update is update
                    copied.append(link_id)
            sent[link_id] = len(wire.sent)
        assert (acked, sorted(copied)) == expected
        return acked, sorted(copied)

    everywhere = sorted(set(wires) - {arrival.reverse_id})
    assert hop() == (arrival.reverse_id, everywhere)
    network.set_circuit_state(spare.link_id, up=False)
    assert hop() == (
        arrival.reverse_id, sorted(set(everywhere) - {spare.reverse_id}),
    )
    network.set_circuit_state(arrival.link_id, up=False)  # a copy in flight
    assert hop() == (None, sorted(set(everywhere) - {spare.reverse_id}))
    network.set_circuit_state(spare.link_id, up=True)
    network.set_circuit_state(arrival.link_id, up=True)
    assert hop() == (arrival.reverse_id, everywhere)
    updates = sum(
        packet.kind is PacketKind.ROUTING_UPDATE
        for wire in wires.values() for packet in wire.sent
    )
    assert state.stats.forwarded == updates == 3 + 2 + 2 + 3
