"""Unit tests for statistics collection and reporting."""

import math
from types import SimpleNamespace

import pytest

from repro.des import Simulator
from repro.metrics import HopNormalizedMetric
from repro.psn import Packet, PacketKind
from repro.routing import QueueLengthMetric
from repro.sim import NetworkSimulation, ScenarioConfig, StatsCollector
from repro.topology import (
    build_arpanet_1987,
    build_random_network,
    build_ring_network,
    build_string_network,
)
from repro.traffic import TrafficMatrix


def packet(src, dst, created=10.0, size=600.0, hops=0):
    return Packet(
        kind=PacketKind.DATA, src=src, dst=dst,
        size_bits=size, created_s=created, hop_count=hops,
    )


@pytest.fixture
def net():
    return build_ring_network(4)


def test_delivery_accounting(net):
    stats = StatsCollector(net)
    stats.packet_offered(10.0)
    stats.packet_delivered(packet(0, 1, created=10.0, hops=1), 10.5)
    report = stats.report("test", 100.0)
    assert report.delivered_packets == 1
    assert report.offered_packets == 1
    assert report.round_trip_delay_ms == pytest.approx(1000.0)  # 2 x 0.5 s
    assert report.actual_path_hops == 1.0
    assert report.minimum_path_hops == 1.0
    assert report.delivery_ratio == 1.0


def test_warmup_excludes_early_events(net):
    stats = StatsCollector(net, warmup_s=50.0)
    stats.packet_offered(10.0)
    stats.packet_delivered(packet(0, 1, created=10.0), 11.0)
    stats.packet_offered(60.0)
    stats.packet_delivered(packet(0, 1, created=60.0, hops=1), 61.0)
    report = stats.report("test", 100.0)
    assert report.delivered_packets == 1
    assert report.offered_packets == 1


def test_path_ratio(net):
    stats = StatsCollector(net)
    # 0 -> 1 via the long way: 3 hops actual, 1 minimum.
    stats.packet_delivered(packet(0, 1, hops=3), 11.0)
    report = stats.report("test", 100.0)
    assert report.actual_path_hops == 3.0
    assert report.minimum_path_hops == 1.0
    assert report.path_ratio == pytest.approx(3.0)


def test_drop_reasons(net):
    stats = StatsCollector(net)
    stats.packet_dropped(packet(0, 1), "congestion", 10.0)
    stats.packet_dropped(packet(0, 1), "unreachable", 10.0)
    stats.packet_dropped(packet(0, 1), "hop-limit", 10.0)
    with pytest.raises(ValueError):
        stats.packet_dropped(packet(0, 1), "gremlins", 10.0)
    report = stats.report("test", 100.0)
    assert report.congestion_drops == 1
    assert report.other_drops == 2


def test_throughput_in_kbps(net):
    stats = StatsCollector(net)
    stats.packet_delivered(packet(0, 1, size=50_000.0, hops=1), 20.0)
    report = stats.report("test", 100.0)
    assert report.internode_traffic_kbps == pytest.approx(0.5)


def test_update_accounting(net):
    stats = StatsCollector(net, warmup_s=10.0)
    stats.update_originated([(3, 42)], 5.0)   # warmup: kept in history
    stats.update_originated([(3, 55), (4, 58)], 20.0)  # one update
    stats.update_originated([(4, 60)], 30.0)
    report = stats.report("test", 110.0)
    # Updates count per originating node, not per reported link.
    assert report.updates_per_s == pytest.approx(2 / 100.0)
    assert stats.cost_series(3) == [(5.0, 42), (20.0, 55)]
    assert stats.cost_series(4) == [(20.0, 58), (30.0, 60)]
    # per node: 2 updates / 100 s / 4 nodes.
    assert report.update_period_per_node_s == pytest.approx(200.0)


def test_utilization_history(net):
    stats = StatsCollector(net)
    stats.utilization_sample(2, 0.5, 10.0)
    stats.utilization_sample(2, 0.7, 20.0)
    assert stats.utilization_history[2] == [(10.0, 0.5), (20.0, 0.7)]


def test_min_hop_distance_cached(net):
    stats = StatsCollector(net)
    assert stats.min_hop_distance(0, 2) == 2
    assert stats.min_hop_distance(0, 2) == 2
    assert stats._hops[0] is not None
    assert stats._hops[1:] == [None] * (len(net) - 1)


def test_collector_holds_no_spf_tree(net):
    """Minimum-hop distances are per-source hop-count rows: the
    collector keeps no unit-cost SPF tree or cost table of its own."""
    from repro.routing.spf import CostTable, SpfTree

    sim = NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix.uniform(net, 20_000.0),
        ScenarioConfig(duration_s=30.0, warmup_s=5.0),
    )
    sim.run()
    stats = sim.stats
    assert stats.min_hops_sum > 0
    held = list(vars(stats).values())
    for value in list(held):
        if isinstance(value, dict):
            held.extend(value.values())
        elif isinstance(value, list):
            held.extend(value)
    assert not any(isinstance(value, (SpfTree, CostTable)) for value in held)
    assert all(row is None or len(row) == len(net) for row in stats._hops)


def _one_circuit_down():
    network = build_random_network(24, extra_circuits=6, seed=5)
    network.set_circuit_state(0, up=False)
    return network


@pytest.mark.parametrize("build", [build_arpanet_1987, _one_circuit_down],
                         ids=["aug87", "random-one-circuit-down"])
def test_min_hop_distance_matches_networkx(build):
    """Every pair against networkx's BFS over the up links; a pair with
    no path reads 0."""
    import networkx as nx

    network = build()
    stats = StatsCollector(network)
    lengths = dict(nx.all_pairs_shortest_path_length(network.to_networkx()))
    for src in network.nodes:
        for dst in network.nodes:
            expected = lengths[src].get(dst, 0)
            assert stats.min_hop_distance(src, dst) == expected, (src, dst)


def test_min_hop_distance_is_zero_when_unreachable():
    network = build_string_network(4)
    network.set_circuit_state(network.links_between(1, 2)[0].link_id,
                              up=False)
    stats = StatsCollector(network)
    assert stats.min_hop_distance(0, 1) == 1
    assert stats.min_hop_distance(0, 3) == 0
    assert stats.min_hop_distance(3, 3) == 0


def _string_with_middle(metric):
    network = build_string_network(4)
    simulation = NetworkSimulation(
        network, metric, TrafficMatrix.uniform(network, 4_000.0),
        ScenarioConfig(duration_s=30.0, warmup_s=1.0, seed=3),
    )
    return simulation, network.links_between(1, 2)[0].link_id


def test_min_hops_follow_circuit_failure_and_restore():
    """Rows computed before a circuit fails go with it: on a 4-node
    string whose middle circuit is down, neither end reaches the other,
    whichever asked first, and both read 3 again after the restore."""
    simulation, middle = _string_with_middle(HopNormalizedMetric())
    stats = simulation.stats
    assert stats.min_hop_distance(0, 3) == 3
    simulation.fail_circuit_at(middle, at_s=5.0)
    simulation.restore_circuit_at(middle, at_s=15.0)
    simulation.run(until_s=10.0)
    assert stats.min_hop_distance(0, 3) == 0
    assert stats.min_hop_distance(3, 0) == 0
    simulation.run(until_s=20.0)
    assert stats.min_hop_distance(0, 3) == 3
    assert stats.min_hop_distance(3, 0) == 3


def test_bellman_ford_min_hops_follow_circuit_failure():
    simulation, middle = _string_with_middle(QueueLengthMetric())
    stats = simulation.stats
    assert stats.min_hop_distance(0, 3) == 3
    simulation.fail_circuit_at(middle, at_s=5.0)
    simulation.run(until_s=10.0)
    assert stats.min_hop_distance(0, 3) == 0


def test_empty_report_has_no_nans_where_counts_exist(net):
    stats = StatsCollector(net)
    report = stats.report("empty", 100.0)
    assert report.delivered_packets == 0
    assert math.isnan(report.delivery_ratio)
    assert math.isnan(report.path_ratio)
    assert report.round_trip_delay_ms == 0.0


def test_delay_percentiles_with_zero_delivered_packets(net):
    stats = StatsCollector(net)
    stats.packet_offered(10.0)  # offered but never delivered
    report = stats.report("empty", 100.0)
    assert report.delay_p50_ms == 0.0
    assert report.delay_p90_ms == 0.0
    assert report.delay_p99_ms == 0.0
    assert stats.delay_percentile_ms(1.0) == 0.0
    with pytest.raises(ValueError):
        stats.delay_percentile_ms(1.5)


def test_path_ratio_with_zero_minimum_hops(net):
    # Self-addressed delivery: zero minimum hops must not divide.
    stats = StatsCollector(net)
    stats.packet_delivered(packet(0, 0, hops=1), 11.0)
    report = stats.report("test", 100.0)
    assert report.minimum_path_hops == 0.0
    assert report.actual_path_hops == 1.0
    assert math.isnan(report.path_ratio)


def test_update_trunk_rate_post_warmup_cut(net):
    stats = StatsCollector(net, warmup_s=50.0)
    trunks = len(net.links)
    wire = SimpleNamespace(update_packets_sent=0)
    clock = Simulator()
    stats.attach_wire(clock, {0: wire})
    wire.update_packets_sent = 50 * trunks
    clock.run(until=60.0)  # the warm-up snapshot fires at 50 s
    wire.update_packets_sent = 150 * trunks
    # The boot flood before the snapshot is cut; the rest divides by
    # the post-warmup window (100 s), not the duration.
    report = stats.report("test", 150.0)
    assert report.updates_per_trunk_s == pytest.approx(1.0)


@pytest.mark.parametrize("metric", [
    HopNormalizedMetric(), QueueLengthMetric(),
], ids=["spf", "bellman-ford"])
def test_update_trunk_rate_counts_only_post_warmup_transmissions(metric):
    # Every generation counts the wire through the collector: the rate
    # times trunks times the window is exactly what was sent after the
    # warm-up instant, boot flood excluded.
    net = build_ring_network(4)
    simulation = NetworkSimulation(
        net, metric, TrafficMatrix.uniform(net, 30_000.0),
        ScenarioConfig(duration_s=40.0, warmup_s=12.5, seed=3),
    )

    def sent():
        return sum(
            t.update_packets_sent for t in simulation.transmitters.values()
        )

    simulation.sim.run(until=simulation.config.warmup_s)
    at_warmup = sent()
    report = simulation.run()
    after_warmup = sent() - at_warmup
    assert at_warmup > 0 and after_warmup > 0
    window_s = simulation.config.duration_s - simulation.config.warmup_s
    assert report.updates_per_trunk_s * len(net.links) * window_s == \
        pytest.approx(after_warmup, rel=1e-12)


def test_run_to_time_zero_reports_zero_update_rate(net):
    # A run that has not advanced past t = 0 sent nothing after the
    # warm-up and must not divide by a zero window.
    sim = NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix.uniform(net, 30_000.0),
        ScenarioConfig(duration_s=120.0, warmup_s=20.0),
    )
    report = sim.run(until_s=0.0)
    assert report.updates_per_trunk_s == 0.0
    assert report.delivered_packets == 0


def test_report_before_warmup_ends_counts_no_post_warmup_updates(net):
    # The boot flood is sent before the warm-up snapshot fires; a report
    # taken then must not divide it by the clamped post-warm-up window.
    sim = NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix.uniform(net, 30_000.0),
        ScenarioConfig(duration_s=30.0, warmup_s=5.0),
    )
    assert sim.run(until_s=3.0).updates_per_trunk_s == 0.0
    assert 0.0 < sim.run().updates_per_trunk_s < 1.0
