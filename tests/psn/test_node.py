"""Integration tests for the PSN using small live simulations."""

import pytest

from repro.metrics import DelayMetric, HopNormalizedMetric
from repro.psn.node import DOWN_COST
from repro.routing import CostTable
from repro.sim import NetworkSimulation, ScenarioConfig, build_scenario
from repro.topology import build_ring_network
from repro.traffic import TrafficMatrix


def quiet_config(duration=65.0, warmup=5.0, seed=0):
    return ScenarioConfig(duration_s=duration, warmup_s=warmup, seed=seed)


def test_packet_delivered_end_to_end():
    net = build_ring_network(4)
    traffic = TrafficMatrix({(0, 2): 5_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config())
    report = sim.run()
    assert report.delivered_packets > 0
    assert report.delivery_ratio > 0.99
    assert report.actual_path_hops == pytest.approx(2.0)


def test_delay_includes_propagation_and_transmission():
    net = build_ring_network(4)
    traffic = TrafficMatrix({(0, 1): 2_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config())
    report = sim.run()
    # One 56 kb/s hop: >= transmission (~10 ms) one-way, x2 for round trip.
    assert report.round_trip_delay_ms > 20.0
    assert report.round_trip_delay_ms < 200.0


def test_updates_flow_and_costs_converge():
    """After ease-in, every node's cost table should agree with the
    advertised (idle) costs of every link."""
    net = build_ring_network(5)
    traffic = TrafficMatrix({(0, 1): 1_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config(duration=120.0))
    sim.run()
    reference = sim.psns[0].costs.costs
    for node_id, psn in sim.psns.items():
        assert psn.costs.costs == reference, node_id
    # Idle network: every cost should have eased down to the minimum (30).
    assert all(c == 30.0 for c in reference)


@pytest.mark.parametrize("scenario", ["aug87", "may87", "grid64"])
def test_boot_cost_tables_are_private_copies_of_one_idle_table(scenario):
    """The simulation evaluates the metric's idle costs once and copies
    the table per PSN: each copy must be what the node would have built
    for itself, and share nothing."""
    sim = build_scenario(scenario, config=quiet_config())
    network, metric = sim.network, sim.metric
    for node_id, psn in sim.psns.items():
        expected = CostTable.from_metric(network, metric)
        for link in network.out_links(node_id, include_down=True):
            expected[link.link_id] = float(metric.initial_cost(link))
        assert psn.costs.costs == expected.costs, node_id
        assert psn.tree.costs is psn.costs

    first, *others = sim.psns.values()
    before = [list(psn.costs.costs) for psn in others]
    first.costs[0] = first.costs[0] + 7.0
    assert [psn.costs.costs for psn in others] == before


def test_measurement_interval_generates_updates_within_cap():
    net = build_ring_network(3)
    traffic = TrafficMatrix({(0, 1): 1_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config(duration=120.0))
    report = sim.run()
    # 6 nodes... 3 nodes x 2 links each; every link must update at least
    # every 50 s => at least 2 updates per link in 120 s (and ease-in adds
    # more early on).
    assert report.updates_per_s > 0
    for link in net.links:
        series = sim.stats.cost_series(link.link_id)
        assert len(series) >= 2, link
        gaps = [b - a for (a, _), (b, _) in zip(series, series[1:])]
        assert all(gap <= 51.0 for gap in gaps), link


def test_hop_limit_drops_looping_packets():
    """Force a routing loop by corrupting one node's tree; the hop limit
    must catch the packet."""
    net = build_ring_network(4)
    traffic = TrafficMatrix({(0, 2): 5_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config())
    sim.run(until_s=20.0)
    # Sabotage: node 1 sends everything for 2 back toward 0, whatever
    # its tree says.
    back_link = net.links_between(1, 0)[0].link_id
    compile_table = sim.spf_cache.forwarding_table

    def evil_table(tree):
        table = compile_table(tree)
        if tree.root == 1:
            table[2] = back_link
        return table

    sim.spf_cache.forwarding_table = evil_table
    sim.psns[1]._table = sim.psns[1]._forwarding = None
    sim.run(until_s=40.0)
    assert sim.stats.hop_limit_drops > 0


def test_unreachable_destination_dropped():
    net = build_ring_network(3)
    traffic = TrafficMatrix({(0, 2): 5_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config(duration=200.0))
    # Cut node 2 off entirely (links 2<->0 and 1<->2).
    sim.fail_circuit_at(net.links_between(1, 2)[0].link_id, at_s=50.0)
    sim.fail_circuit_at(net.links_between(2, 0)[0].link_id, at_s=50.0)
    report = sim.run()
    assert sim.stats.unreachable_drops > 0
    assert report.delivery_ratio < 1.0


def test_link_failure_reroutes_traffic():
    net = build_ring_network(4)
    traffic = TrafficMatrix({(0, 1): 5_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config(duration=240.0, warmup=120.0))
    direct = net.links_between(0, 1)[0].link_id
    sim.fail_circuit_at(direct, at_s=60.0)
    report = sim.run()
    # All post-warmup deliveries took the long way (3 hops instead of 1).
    assert report.actual_path_hops == pytest.approx(3.0, abs=0.05)
    assert report.delivery_ratio > 0.95


def test_link_recovery_eases_in_with_hnspf():
    net = build_ring_network(4)
    traffic = TrafficMatrix({(0, 1): 5_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config(duration=400.0))
    direct = net.links_between(0, 1)[0].link_id
    sim.fail_circuit_at(direct, at_s=50.0)
    sim.restore_circuit_at(direct, at_s=100.0)
    sim.run()
    series = sim.stats.cost_series(direct)
    recovery = [(t, c) for t, c in series if t >= 100.0]
    # First post-recovery advertisement is the maximum cost (ease-in)...
    assert recovery[0][1] == 90
    # ...and it decays to the minimum as the link proves idle.
    assert recovery[-1][1] == 30


def test_down_advertisement_uses_down_cost():
    net = build_ring_network(4)
    traffic = TrafficMatrix({(0, 2): 1_000.0})
    sim = NetworkSimulation(net, HopNormalizedMetric(), traffic,
                            quiet_config(duration=100.0))
    direct = net.links_between(0, 1)[0].link_id
    sim.fail_circuit_at(direct, at_s=30.0)
    sim.run()
    costs = [c for t, c in sim.stats.cost_series(direct) if t >= 30.0]
    assert costs[0] >= DOWN_COST


def test_dspf_and_hnspf_share_forwarding_machinery():
    net = build_ring_network(4)
    traffic = TrafficMatrix.uniform(net, 20_000.0)
    for metric in (DelayMetric(), HopNormalizedMetric()):
        sim = NetworkSimulation(net, metric, traffic, quiet_config())
        report = sim.run()
        assert report.delivery_ratio > 0.95, metric.name


def test_same_seed_same_results():
    net = build_ring_network(4)
    traffic = TrafficMatrix.uniform(net, 30_000.0)

    def run():
        sim = NetworkSimulation(net_copy(), HopNormalizedMetric(), traffic,
                                quiet_config(seed=5))
        return sim.run()

    def net_copy():
        return build_ring_network(4)

    a, b = run(), run()
    assert a.delivered_packets == b.delivered_packets
    assert a.round_trip_delay_ms == pytest.approx(b.round_trip_delay_ms)


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(duration_s=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(duration_s=10.0, warmup_s=10.0)
