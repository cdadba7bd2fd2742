"""Unit tests for the flooding protocol logic."""

import sys
from types import SimpleNamespace

import pytest

from repro.routing import FloodingState, RoutingUpdate
from repro.topology import build_grid_network, build_ring_network


@pytest.fixture
def ring():
    return build_ring_network(4)


def _report(network, node, cost):
    """Every link of ``node`` at ``cost``: one node's whole update."""
    return [(link.link_id, cost) for link in network.out_links(node)]


def test_originate_increments_sequence(ring):
    state = FloodingState(ring, 0)
    first = state.originate(_report(ring, 0, 30))
    second = state.originate(_report(ring, 0, 47))
    assert first.sequence == 1
    assert second.sequence == 2
    assert first.origin == second.origin == 0
    assert state._own_sequence == 2


def test_update_carries_every_entry_it_was_given(ring):
    state = FloodingState(ring, 0)
    entries = [(link.link_id, 30 + i)
               for i, link in enumerate(ring.out_links(0))]
    update = state.originate(entries)
    assert update.costs == tuple(entries)


def test_originate_rejects_foreign_link(ring):
    state = FloodingState(ring, 0)
    foreign = ring.out_links(1)[0].link_id
    with pytest.raises(ValueError):
        state.originate(_report(ring, 0, 30) + [(foreign, 30)])
    assert state._own_sequence == 0  # a refused update spends nothing


def test_accept_new_then_reject_duplicate(ring):
    sender = FloodingState(ring, 0)
    receiver = FloodingState(ring, 1)
    update = sender.originate(_report(ring, 0, 42))
    assert receiver.accept(update)
    assert not receiver.accept(update)
    assert receiver.stats.accepted == 1
    assert receiver.stats.duplicates == 1


def test_stale_sequence_rejected(ring):
    sender = FloodingState(ring, 0)
    receiver = FloodingState(ring, 1)
    old = sender.originate(_report(ring, 0, 42))
    new = sender.originate(_report(ring, 0, 60))
    assert receiver.accept(new)
    assert not receiver.accept(old)


def test_originator_ignores_reflected_copy(ring):
    sender = FloodingState(ring, 0)
    update = sender.originate(_report(ring, 0, 42))
    assert not sender.accept(update)


def test_one_sequence_space_per_origin(ring):
    """A node's updates share one counter; each origin has its own."""
    a, b = FloodingState(ring, 0), FloodingState(ring, 1)
    first = a.originate(_report(ring, 0, 42))
    second = a.originate(_report(ring, 0, 43))
    other = b.originate(_report(ring, 1, 42))
    assert (first.sequence, second.sequence, other.sequence) == (1, 2, 1)
    receiver = FloodingState(ring, 2)
    assert receiver.accept(second)
    assert receiver.accept(other)  # origin 1's space is untouched by 0's
    assert not receiver.accept(first)
    assert [receiver.highest_seen(node) for node in ring.nodes] == \
        [2, 1] + [0] * (len(ring.nodes) - 2)


def test_forward_links_exclude_arrival_reverse(ring):
    state = FloodingState(ring, 1)
    # Update arrived on the link 0 -> 1; don't send it back on 1 -> 0.
    arrival = ring.links_between(0, 1)[0].link_id
    back = ring.link(arrival).reverse_id
    forwards = state.forward_links(arrived_on=arrival)
    assert back not in forwards
    assert len(forwards) == len(ring.out_links(1)) - 1


def test_forward_links_all_when_originating(ring):
    state = FloodingState(ring, 1)
    forwards = state.forward_links(arrived_on=None)
    assert len(forwards) == len(ring.out_links(1))


def test_flood_reaches_every_node_once(ring):
    """Simulate a full synchronous flood; every node accepts exactly once."""
    states = {n: FloodingState(ring, n) for n in ring.nodes}
    update = states[0].originate(_report(ring, 0, 55))
    frontier = [(update, link_id) for link_id in
                states[0].forward_links(None)]
    accepted = {0}
    while frontier:
        update_msg, via = frontier.pop(0)
        receiver = ring.link(via).dst
        if states[receiver].accept(update_msg):
            accepted.add(receiver)
            frontier.extend(
                (update_msg, out)
                for out in states[receiver].forward_links(arrived_on=via)
            )
    assert accepted == set(ring.nodes)
    for node, state in states.items():
        if node != 0:
            assert state.stats.accepted == 1


def test_update_is_immutable():
    update = RoutingUpdate(origin=0, sequence=1, costs=((0, 30),))
    with pytest.raises(AttributeError):
        update.costs = ((0, 99),)


def test_every_copy_is_acked_on_the_reverse_link(ring):
    """Fresh or duplicate, a copy is acknowledged while the circuit is up."""
    sender = FloodingState(ring, 0)
    receiver = FloodingState(ring, 1)
    via = next(l for l in ring.out_links(0) if l.dst == 1)
    update = sender.originate(_report(ring, 0, 42))
    assert receiver.accept(update)
    assert receiver.note_received(via.link_id, update) == via.reverse_id
    assert not receiver.accept(update)
    assert receiver.note_received(via.link_id, update) == via.reverse_id
    ring.set_circuit_state(via.link_id, up=False)
    assert receiver.note_received(via.link_id, update) is None


def test_ledger_keeps_the_newest_copy_until_its_ack(ring):
    state = FloodingState(ring, 0)
    out = ring.out_links(0)[0].link_id
    old = state.originate(_report(ring, 0, 40))
    state.note_sent(out, old, 1.0)
    new = state.originate(_report(ring, 0, 50))
    state.note_sent(out, new, 2.0)
    assert state.unacked == {state.ledger_key(out, 0): (new, 2.0)}
    state.note_acked(out, old)  # a late ack for the superseded copy
    assert state.unacked == {state.ledger_key(out, 0): (new, 2.0)}
    state.note_acked(out, new)
    assert state.unacked == {}


def test_ledger_keys_are_one_int_per_link_and_origin():
    network = build_grid_network(3, 3)
    state = FloodingState(network, 4)
    keys = {
        state.ledger_key(link.link_id, origin)
        for link in network.links for origin in network.nodes
    }
    assert all(type(key) is int for key in keys)
    assert len(keys) == len(network.links) * len(network.nodes)


class _Wire:
    def __init__(self):
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)


def test_one_flood_shares_one_ledger_value():
    """Every copy of one flood arms its ledger entry with the same
    ``(update, send time)`` object; the next flood gets its own."""
    network = build_grid_network(3, 3)
    hub = 4  # the centre: four circuits
    clock = SimpleNamespace(now=1.5)
    wires = {link.link_id: _Wire() for link in network.out_links(hub)}
    state = FloodingState(network, hub, clock, wires)
    first = state.originate(_report(network, hub, 40))
    state.flood(first, arrived_on=None)
    values = list(state.unacked.values())
    assert len(values) == len(wires) == 4
    assert values[0] == (first, 1.5)
    assert all(value is values[0] for value in values)
    assert all(len(wire.sent) == 1 for wire in wires.values())

    clock.now = 2.5
    second = state.originate(_report(network, hub, 50))
    state.flood(second, arrived_on=None)
    renewed = list(state.unacked.values())
    assert len(renewed) == 4 and renewed[0] == (second, 2.5)
    assert all(value is renewed[0] for value in renewed)
    assert renewed[0] is not values[0]


def test_drained_ledger_is_back_to_empty_dict_size():
    """Dicts keep their capacity on ``del``: once every entry is acked,
    the next retransmit tick hands the ledger a fresh, empty-sized dict."""
    network = build_ring_network(64)
    state = FloodingState(network, 0)
    out = network.out_links(0)[0].link_id
    updates = [
        FloodingState(network, node).originate(_report(network, node, 40))
        for node in network.nodes
    ]
    for update in updates:
        state.note_sent(out, update, 1.0)
    for update in updates:
        state.note_acked(out, update)
    assert state.unacked == {}
    assert sys.getsizeof(state.unacked) > sys.getsizeof({})
    state.retransmit_tick()
    assert state.unacked == {}
    assert sys.getsizeof(state.unacked) == sys.getsizeof({})
