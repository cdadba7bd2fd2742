"""Focused tests of PSN internals: update plane, advertisement timing."""

import pytest

from repro.metrics import HopNormalizedMetric, MinHopMetric
from repro.psn.node import UPDATE_PACKET_BITS
from repro.psn.packet import Packet, PacketKind
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_ring_network, build_string_network
from repro.traffic import TrafficMatrix


def build_sim(net, metric=None, **kwargs):
    defaults = dict(duration_s=200.0, warmup_s=20.0, seed=0)
    defaults.update(kwargs)
    return NetworkSimulation(
        net, metric or HopNormalizedMetric(),
        TrafficMatrix({(0, 1): 1_000.0}),
        ScenarioConfig(**defaults),
    )


def test_updates_propagate_to_all_nodes_quickly():
    """'All the nodes in a network adjust their routes ... simultaneously'
    -- flooding covers the network in well under a routing period."""
    net = build_string_network(6)  # worst case: 5 serial hops
    sim = build_sim(net)
    sim.run(until_s=5.0)  # before any measurement interval closes
    # Every node already knows every link's ease-in (initial) cost: all
    # cost tables agree.
    reference = sim.psns[0].costs.costs
    for node_id, psn in sim.psns.items():
        assert psn.costs.costs == reference, node_id


def test_advertise_applies_locally_and_floods():
    net = build_ring_network(4)
    sim = build_sim(net)
    sim.run(until_s=1.0)
    psn = sim.psns[0]
    own_link = net.out_links(0)[0].link_id
    psn.advertise(own_link, 77)
    assert psn.costs[own_link] == 77.0
    sim.sim.run(until=2.0)
    for node_id, other in sim.psns.items():
        assert other.costs[own_link] == 77.0, node_id


def test_update_packet_without_payload_raises():
    net = build_ring_network(4)
    sim = build_sim(net)
    sim.run(until_s=1.0)
    bogus = Packet(
        packet_id=10 ** 9, kind=PacketKind.ROUTING_UPDATE,
        src=1, dst=None, size_bits=UPDATE_PACKET_BITS, created_s=1.0,
    )
    via = net.links_between(1, 0)[0]
    with pytest.raises(ValueError):
        sim.psns[0].receive(bogus, via)


def test_minhop_only_sends_keepalive_updates():
    """Min-hop's change threshold is effectively infinite, so only the
    50-second reliability cap produces updates."""
    net = build_ring_network(4)
    sim = build_sim(net, metric=MinHopMetric(), duration_s=200.0)
    sim.run()
    for link in net.links:
        series = sim.stats.cost_series(link.link_id)
        costs = {c for _t, c in series}
        assert costs == {30}
        gaps = [b - a for (a, _), (b, _) in zip(series, series[1:])]
        assert gaps, link
        # Pure keepalives after the boot advertisement: the first gap is
        # 50 s plus the node's measurement phase offset; every later gap
        # is exactly the 50 s cap.
        assert 50.0 <= gaps[0] <= 60.5
        assert all(
            gap == pytest.approx(50.0, abs=0.5) for gap in gaps[1:]
        )


def test_measurement_phases_are_staggered():
    """Nodes must not close their measurement intervals in lockstep
    (the real network was unsynchronized)."""
    net = build_ring_network(5)
    sim = build_sim(net)
    sim.run(until_s=120.0)
    first_sample_times = {}
    for link in net.links:
        history = sim.stats.utilization_history[link.link_id]
        if history:
            first_sample_times[link.src] = round(history[0][0], 3)
    assert len(set(first_sample_times.values())) > 1


def test_costs_identical_across_nodes_after_convergence():
    net = build_ring_network(5)
    sim = build_sim(net, duration_s=300.0)
    sim.run()
    reference = sim.psns[0].costs.costs
    for psn in sim.psns.values():
        assert psn.costs.costs == reference


def test_spf_work_counters_accumulate():
    """Incremental SPF should be doing cheap updates, not full
    recomputes, as updates flow."""
    net = build_ring_network(5)
    sim = build_sim(net, duration_s=200.0)
    sim.run()
    psn = sim.psns[0]
    assert psn.tree.stats.full_computations == 1  # only the initial build
    total_updates = (psn.tree.stats.batched_passes
                     + psn.tree.stats.no_op_updates)
    assert total_updates > 10
