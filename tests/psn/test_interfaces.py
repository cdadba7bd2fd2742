"""Unit tests for the link transmitter."""

import tracemalloc

import pytest

from repro.des import Simulator
from repro.psn import LinkTransmitter, Packet, PacketKind
from repro.psn.interfaces import PROCESSING_DELAY_S
from repro.routing import RoutingUpdate
from repro.topology import Network, line_type


def make_link(type_name="56K-T", propagation_s=0.010):
    net = Network()
    a = net.add_node().node_id
    b = net.add_node().node_id
    link, _ = net.add_circuit(a, b, line_type(type_name), propagation_s)
    return link


def data_packet(size_bits=560.0, created_s=0.0):
    return Packet(
        kind=PacketKind.DATA, src=0, dst=1,
        size_bits=size_bits, created_s=created_s,
    )


def update_packet():
    return Packet(
        kind=PacketKind.ROUTING_UPDATE, src=0, dst=None,
        size_bits=1000.0, created_s=0.0,
        update=RoutingUpdate(0, 1, ((0, 30),)),
    )


def same_packets(got, expected):
    """The same packet objects in the same order (packets have no id,
    and two with equal fields compare equal)."""
    return [id(p) for p in got] == [id(p) for p in expected]


def test_transmission_and_propagation_timing():
    sim = Simulator()
    link = make_link()  # 56 kb/s, 10 ms propagation
    delivered = []
    tx = LinkTransmitter(sim, link, lambda p, l: delivered.append(sim.now))
    tx.send(data_packet(size_bits=5600.0))  # 100 ms on the wire
    sim.run()
    assert delivered == [pytest.approx(0.100 + 0.010)]


def test_fifo_serialization():
    sim = Simulator()
    link = make_link()
    order = []
    tx = LinkTransmitter(sim, link, lambda p, l: order.append(p))
    packets = [data_packet(size_bits=560.0) for _ in range(3)]
    for packet in packets:
        tx.send(packet)
    sim.run()
    assert same_packets(order, packets)


def test_updates_jump_the_data_queue():
    sim = Simulator()
    link = make_link()
    order = []
    tx = LinkTransmitter(sim, link, lambda p, l: order.append(id(p)))
    first, second, update = data_packet(), data_packet(), update_packet()
    for packet in (first, second, update):
        tx.send(packet)
    sim.run()
    # The first packet is already "on the wire" conceptually (first
    # dequeue), but the update must beat the second.
    assert order.index(id(update)) < order.index(id(second))


def test_buffer_overflow_drops():
    sim = Simulator()
    link = make_link()
    drops = []
    tx = LinkTransmitter(
        sim, link, lambda p, l: None, buffer_packets=2,
        on_drop=lambda p, l: drops.append(p),
    )
    packets = [data_packet() for _ in range(5)]
    accepted = [tx.send(packet) for packet in packets]
    # Same-instant rule: a packet reaching a free wire starts at once, so
    # the buffer holds the next two and the last two drop.
    assert accepted == [True, True, True, False, False]
    assert same_packets(drops, packets[3:])
    assert tx.drops == 2


def test_negative_buffer_rejected_and_zero_buffer_legal():
    sim = Simulator()
    link = make_link()
    with pytest.raises(ValueError, match="buffer_packets"):
        LinkTransmitter(sim, link, lambda p, l: None, buffer_packets=-1)
    tx = LinkTransmitter(sim, link, lambda p, l: None, buffer_packets=0)
    # Only a packet reaching a free wire goes; nothing waits.
    assert [tx.send(data_packet()) for _ in range(2)] == [True, False]


def test_control_queue_never_drops():
    sim = Simulator()
    link = make_link()
    tx = LinkTransmitter(sim, link, lambda p, l: None, buffer_packets=1)
    for _ in range(10):
        assert tx.send(update_packet())
    assert tx.drops == 0


def test_delay_samples_include_all_components():
    sim = Simulator()
    link = make_link()  # 56 kb/s, 10 ms prop
    samples = []
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.on_delay_sample = samples.append
    tx.send(data_packet(size_bits=5600.0))
    sim.run()
    expected = 0.0 + PROCESSING_DELAY_S + 0.100 + 0.010
    assert samples == [pytest.approx(expected)]


def test_delay_samples_measure_queueing():
    sim = Simulator()
    link = make_link()
    samples = []
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.on_delay_sample = samples.append
    tx.send(data_packet(size_bits=5600.0))  # occupies wire 100 ms
    tx.send(data_packet(size_bits=5600.0))  # waits 100 ms
    sim.run()
    assert samples[1] - samples[0] == pytest.approx(0.100)


def test_updates_not_measured_as_data_delay():
    sim = Simulator()
    link = make_link()
    samples = []
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.on_delay_sample = samples.append
    tx.send(update_packet())
    sim.run()
    assert samples == []


def test_utilization_accounting():
    sim = Simulator()
    link = make_link()
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.send(data_packet(size_bits=5600.0))  # 100 ms of wire time
    sim.run(until=10.0)
    assert tx.take_utilization(10.0) == pytest.approx(0.01)
    assert tx.take_utilization(10.0) == 0.0  # reset
    with pytest.raises(ValueError):
        tx.take_utilization(0.0)


def test_down_link_discards():
    sim = Simulator()
    link = make_link()
    delivered = []
    drops = []
    tx = LinkTransmitter(
        sim, link, lambda p, l: delivered.append(p),
        on_drop=lambda p, l: drops.append(p),
    )
    link.up = False
    packet = data_packet()
    tx.send(packet)
    sim.run()
    assert delivered == []
    assert same_packets(drops, [packet])


def test_flush_discards_queue():
    sim = Simulator()
    link = make_link()
    delivered = []
    tx = LinkTransmitter(sim, link, lambda p, l: delivered.append(p))
    packets = [data_packet() for _ in range(4)]
    for packet in packets:
        tx.send(packet)
    discarded = tx.flush()
    # Same-instant rule: packet 0 found the wire free and started at
    # once, so it flies on and arrives; the three waiting are discarded.
    assert discarded == 3
    assert tx.queue_length() == 0
    sim.run()
    assert same_packets(delivered, packets[:1])


def test_arrival_counts_one_hop():
    sim = Simulator()
    link = make_link()
    delivered = []
    tx = LinkTransmitter(sim, link, lambda p, l: delivered.append(p))
    tx.send(data_packet())
    sim.run()
    assert delivered[0].hop_count == 1


def test_queue_length_counts_both_queues():
    sim = Simulator()
    link = make_link()
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    tx.send(data_packet())
    tx.send(update_packet())
    tx.send(data_packet())
    # Same-instant rule: packet 1 found the wire free and started at
    # once; the update and packet 3 wait, one in each queue.
    assert tx.queue_length() == 2
    assert tx.control_backlog() == 1


def test_idle_transmitter_stays_small():
    """An idle transmitter holds two empty list queues and one empty
    flight deque: under 2 000 bytes (two empty deques cost 1 520)."""
    sim = Simulator()
    link = make_link()
    deliver = lambda p, l: None  # noqa: E731
    LinkTransmitter(sim, link, deliver)  # warm any first-use caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        idle = [LinkTransmitter(sim, link, deliver) for _ in range(50)]
        per_transmitter = (tracemalloc.get_traced_memory()[0] - before) / 50
    finally:
        tracemalloc.stop()
    assert len(idle) == 50
    assert per_transmitter < 2_000
