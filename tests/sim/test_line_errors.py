"""Failure injection: noisy lines destroying packets in flight."""

import pytest

from repro.des import RandomStreams, Simulator
from repro.metrics import HopNormalizedMetric
from repro.psn import LinkTransmitter, Packet, PacketKind
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import Network, build_ring_network, line_type
from repro.traffic import TrafficMatrix


def make_link():
    net = Network()
    a = net.add_node().node_id
    b = net.add_node().node_id
    link, _ = net.add_circuit(a, b, line_type("56K-T"))
    return link


def test_transmitter_validates_error_config():
    sim = Simulator()
    link = make_link()
    with pytest.raises(ValueError):
        LinkTransmitter(sim, link, lambda p, l: None, error_rate=1.5)
    with pytest.raises(ValueError):
        LinkTransmitter(sim, link, lambda p, l: None, error_rate=0.1)


def test_transmitter_loses_fraction_of_packets():
    sim = Simulator()
    link = make_link()
    delivered = []
    rng = RandomStreams(4).stream("errors")
    tx = LinkTransmitter(
        sim, link, lambda p, l: delivered.append(p),
        buffer_packets=10_000, error_rate=0.3, error_rng=rng,
    )
    for _ in range(2000):
        tx.send(Packet(
            kind=PacketKind.DATA, src=0, dst=1,
            size_bits=100.0, created_s=sim.now,
        ))
        sim.run(until=sim.now + 0.01)
    sim.run()
    loss = 1.0 - len(delivered) / 2000.0
    assert loss == pytest.approx(0.3, abs=0.05)
    assert tx.line_error_losses == 2000 - len(delivered)


def test_network_survives_noisy_lines():
    """5% line errors: lost updates are repaired by the 50 s keepalive,
    routes stay consistent, and data loss stays near the per-hop error
    rate (no error amplification)."""
    net = build_ring_network(5)
    traffic = TrafficMatrix.uniform(net, 40_000.0)
    sim = NetworkSimulation(
        net, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=400.0, warmup_s=100.0, seed=9,
                       line_error_rate=0.05),
    )
    report = sim.run()
    # Mean path ~1.5 hops at 5%/hop => ~7-8% loss expected.
    assert 0.85 <= report.delivery_ratio <= 0.97
    # Cost tables still converge across nodes (sequence numbers +
    # keepalives beat the lossy flooding).
    reference = sim.psns[0].costs.costs
    for node_id, psn in sim.psns.items():
        assert psn.costs.costs == reference, node_id


def test_error_free_is_default():
    net = build_ring_network(4)
    sim = NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix.uniform(net, 20_000.0),
        ScenarioConfig(duration_s=60.0, warmup_s=10.0),
    )
    report = sim.run()
    assert report.delivery_ratio > 0.999
    assert all(
        t.line_error_losses == 0 for t in sim.transmitters.values()
    )
