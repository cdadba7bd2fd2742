"""The data plane's seams, hop by hop.

* Transit data goes from the transmitter straight to the far PSN's
  ``forward``; updates, acks, RFNMs and final deliveries still go
  through ``Psn.receive``.
* ``Psn.forward`` tests one thing, its usable table; buffered updates
  and a moved tree take the slow path, which keeps the old order
  (flush, hop limit, then a table) and keeps the table across a no-op
  batch.
* ``LinkTransmitter.data_packets_sent`` is derived from the interval
  counts and must equal the data arrivals however the intervals close.
"""

from collections import Counter

from repro.des import RandomStreams, Simulator
from repro.metrics import HopNormalizedMetric
from repro.psn import LinkTransmitter, Packet, PacketKind
from repro.psn.node import DOWN_COST, MAX_HOPS, Psn
from repro.routing.flooding import RoutingUpdate
from repro.routing.spf import UNREACHABLE
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_ring_network, build_string_network
from repro.traffic import TrafficMatrix

DATA = PacketKind.DATA
RFNM = PacketKind.RFNM
UPDATE = PacketKind.ROUTING_UPDATE
ACK = PacketKind.UPDATE_ACK


def _record_psn_calls(monkeypatch):
    """``(node, method, kind, dst)`` for every ``Psn.receive`` and
    ``Psn.forward`` call.  Patched on the class before a simulation is
    built: the wiring captures bound methods."""
    calls = []
    receive, forward = Psn.receive, Psn.forward

    def recorded_receive(self, packet, via):
        calls.append((self.node_id, "receive", packet.kind, packet.dst))
        receive(self, packet, via)

    def recorded_forward(self, packet):
        calls.append((self.node_id, "forward", packet.kind, packet.dst))
        forward(self, packet)

    monkeypatch.setattr(Psn, "receive", recorded_receive)
    monkeypatch.setattr(Psn, "forward", recorded_forward)
    return calls


def _line_simulation(**config):
    network = build_string_network(3)
    return NetworkSimulation(
        network, HopNormalizedMetric(), TrafficMatrix({(0, 2): 8_000.0}),
        ScenarioConfig(duration_s=40.0, warmup_s=0.0, seed=1, **config),
    )


def _link(network, src, dst):
    return network.links_between(src, dst)[0].link_id


def test_transit_data_reaches_the_middle_forward_without_receive(
        monkeypatch):
    calls = _record_psn_calls(monkeypatch)
    simulation = _line_simulation()
    report = simulation.run()

    middle = [c for c in calls if c[0] == 1 and c[2] is DATA]
    assert middle, "no data crossed the middle node"
    assert {method for _, method, _, _ in middle} == {"forward"}
    assert {dst for *_, dst in middle} == {2}
    # One forward per data packet that arrived over 0 -> 1.
    into_middle = simulation.transmitters[_link(simulation.network, 0, 1)]
    assert len(middle) == into_middle.data_packets_sent

    # The destination still delivers through receive, once per packet.
    at_destination = [c for c in calls if c[0] == 2 and c[2] is DATA]
    assert {method for _, method, _, _ in at_destination} == {"receive"}
    assert len(at_destination) == report.delivered_packets > 0


def test_rfnms_updates_and_acks_still_go_through_receive(monkeypatch):
    calls = _record_psn_calls(monkeypatch)
    simulation = _line_simulation(flow_control_window=4)
    simulation.run()

    # An RFNM in transit at the middle node, then at its destination.
    assert (1, "receive", RFNM, 0) in calls
    assert (0, "receive", RFNM, 0) in calls
    # Every control arrival is one receive call, and no update or ack
    # ever reaches forward.
    received = Counter(
        kind for _, method, kind, _ in calls
        if method == "receive" and kind is not DATA
    )
    assert set(received) == {UPDATE, ACK, RFNM}
    transmitters = simulation.transmitters.values()
    assert sum(received.values()) == sum(
        t.control_packets_sent for t in transmitters
    )
    assert received[UPDATE] == sum(t.update_packets_sent for t in transmitters)
    assert received[ACK] == sum(t.ack_packets_sent for t in transmitters)
    assert not [
        c for c in calls if c[1] == "forward" and c[2] in (UPDATE, ACK)
    ]


def test_data_count_survives_interval_closes_and_line_losses():
    sim = Simulator()
    network = build_string_network(2)
    link = network.links_between(0, 1)[0]
    arrivals = []
    tx = LinkTransmitter(
        sim, link, lambda packet, via: None, buffer_packets=1_000,
        error_rate=0.3, error_rng=RandomStreams(4).stream("errors"),
    )
    tx.on_delay_sample = arrivals.append
    for batch in range(4):
        for _ in range(50):
            tx.send(Packet(DATA, 0, 1, 600.0, sim.now))
            tx.send(Packet(UPDATE, 0, 1, 600.0, sim.now))
            sim.run(until=sim.now + 0.005)
        sim.run()
        assert tx.data_packets_sent == len(arrivals) == 50 * (batch + 1)
        tx.take_delay()
        assert tx.data_packets_sent == len(arrivals)
    assert tx.line_error_losses > 0


def test_data_count_survives_link_reinit_and_line_losses():
    network = build_ring_network(4)
    simulation = NetworkSimulation(
        network, HopNormalizedMetric(),
        TrafficMatrix.uniform(network, 30_000.0),
        ScenarioConfig(duration_s=120.0, warmup_s=10.0, seed=2,
                       line_error_rate=0.02),
    )
    arrivals = Counter()
    for link_id, transmitter in simulation.transmitters.items():
        transmitter.on_delay_sample = (
            lambda _delay, link_id=link_id: arrivals.update((link_id,))
        )
    reinits = Counter()
    local_link_up = Psn.local_link_up

    def counted_link_up(psn, link_id):
        reinits[link_id] += 1
        local_link_up(psn, link_id)

    for psn in simulation.psns.values():
        psn.local_link_up = counted_link_up.__get__(psn)
    bridge = _link(network, 0, 1)
    simulation.fail_circuit_at(bridge, 40.0)
    simulation.restore_circuit_at(bridge, 70.0)
    simulation.run()

    assert sum(reinits.values()) == 2  # both directions re-initialised
    assert sum(t.line_error_losses for t in simulation.transmitters.values())
    for link_id, transmitter in simulation.transmitters.items():
        assert transmitter.data_packets_sent == arrivals[link_id], link_id


def _warm_ring():
    network = build_ring_network(4)
    simulation = NetworkSimulation(
        network, HopNormalizedMetric(), TrafficMatrix({(0, 2): 5_000.0}),
        ScenarioConfig(duration_s=60.0, warmup_s=5.0, seed=0),
    )
    simulation.run(until_s=30.0)
    return simulation


def _data_packet(simulation, hop_count=0):
    packet = Packet(DATA, 0, 2, 600.0, simulation.sim.now)
    packet.hop_count = hop_count
    return packet


def test_no_op_update_batch_keeps_the_forwarding_table():
    simulation = _warm_ring()
    psn = simulation.psns[0]
    psn.forward(_data_packet(simulation))
    table = psn._forwarding
    assert table is not None

    tree_links = set(psn.tree.parent_link)
    off_tree = next(
        link for link in simulation.network.links
        if link.link_id not in tree_links
    )
    raised = int(psn.costs[off_tree.link_id]) + 10
    psn._apply_update(RoutingUpdate(
        off_tree.src, 10_000, ((off_tree.link_id, raised),)
    ))
    assert psn._forwarding is None  # buffered: the slow path flushes
    misses = simulation.spf_cache.stats.table_misses
    passes = psn.tree.stats.batched_passes

    psn.forward(_data_packet(simulation))
    assert psn._pending_old == {}
    assert psn.costs[off_tree.link_id] == raised
    assert psn._forwarding is table
    assert simulation.spf_cache.stats.table_misses == misses
    assert psn.tree.stats.batched_passes == passes


def test_hop_limited_packet_flushes_buffered_updates_first():
    simulation = _warm_ring()
    psn = simulation.psns[0]
    psn.forward(_data_packet(simulation))
    assert psn._forwarding is not None
    tree_link = psn.tree.next_hop_link(2)
    psn._apply_update(RoutingUpdate(0, 10_000, ((tree_link, DOWN_COST),)))
    misses = simulation.spf_cache.stats.table_misses
    drops = simulation.stats.hop_limit_drops

    psn.forward(_data_packet(simulation, hop_count=MAX_HOPS))
    assert simulation.stats.hop_limit_drops == drops + 1
    # Flushed before the hop-limit check: the tree no longer uses the
    # dead link ...
    assert psn._pending_old == {}
    assert psn.costs[tree_link] == UNREACHABLE
    assert psn.tree.next_hop_link(2) not in (None, tree_link)
    # ... and no table is taken for a packet that was dropped.
    assert psn._forwarding is None
    assert simulation.spf_cache.stats.table_misses == misses


def test_router_mode_always_takes_the_slow_path():
    network = build_ring_network(4)
    simulation = NetworkSimulation(
        network, HopNormalizedMetric(),
        TrafficMatrix.uniform(network, 20_000.0),
        ScenarioConfig(duration_s=40.0, warmup_s=5.0, seed=0,
                       multipath="packet"),
    )
    report = simulation.run()
    assert report.delivered_packets > 0
    assert all(psn._forwarding is None for psn in simulation.psns.values())
