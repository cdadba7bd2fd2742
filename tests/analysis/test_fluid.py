"""Tests for the network-wide fluid equilibrium model."""

import pytest

from repro.analysis import FluidNetworkModel
from repro.metrics import HNSPF_STAGES, DelayMetric, HopNormalizedMetric, MinHopMetric
from repro.metrics.base import ease_in
from repro.topology import build_arpanet_1987, build_ring_network
from repro.topology.arpanet import site_weights
from repro.traffic import TrafficMatrix


def test_ring_light_load_settles_at_min_cost():
    net = build_ring_network(6)
    traffic = TrafficMatrix.uniform(net, 30_000.0)
    model = FluidNetworkModel(net, HopNormalizedMetric(), traffic)
    trace = model.run(rounds=20)
    assert trace.settled()
    assert trace.rounds[-1].mean_cost == pytest.approx(30.0, abs=1.0)
    assert trace.tail_overload() == 0.0


def test_ease_in_visible_in_first_rounds():
    net = build_ring_network(6)
    traffic = TrafficMatrix.uniform(net, 30_000.0)
    model = FluidNetworkModel(net, HopNormalizedMetric(), traffic)
    trace = model.run(rounds=10)
    costs = [r.mean_cost for r in trace.rounds]
    assert costs[0] > costs[-1]  # descending from the ease-in maximum


def test_minhop_is_static_after_first_round():
    net = build_ring_network(6)
    traffic = TrafficMatrix.uniform(net, 30_000.0)
    model = FluidNetworkModel(net, MinHopMetric(), traffic)
    trace = model.run(rounds=5)
    assert trace.rounds[-1].churn == 0.0
    assert trace.rounds[-1].mean_cost == 30.0


def test_round_trackers():
    net = build_ring_network(4)
    traffic = TrafficMatrix.uniform(net, 20_000.0)
    model = FluidNetworkModel(net, HopNormalizedMetric(), traffic)
    trace = model.run(rounds=8)
    assert len(trace.rounds) == 8
    assert [r.round_index for r in trace.rounds] == list(range(8))
    for r in trace.rounds:
        assert 0.0 <= r.mean_utilization <= r.max_utilization <= 1.0
        assert 0.0 <= r.churn <= 1.0


def test_bad_rounds_rejected():
    net = build_ring_network(4)
    traffic = TrafficMatrix.uniform(net, 20_000.0)
    model = FluidNetworkModel(net, HopNormalizedMetric(), traffic)
    with pytest.raises(ValueError):
        model.run(rounds=0)


def test_link_utilization_query():
    net = build_ring_network(4)
    traffic = TrafficMatrix.hot_pairs({(0, 1): 28_000.0})
    no_ease_in = [stage for stage in HNSPF_STAGES if stage is not ease_in]
    model = FluidNetworkModel(
        net, HopNormalizedMetric(stages=no_ease_in), traffic
    )
    direct = net.links_between(0, 1)[0].link_id
    assert model.link_utilization(direct) == pytest.approx(0.5)


class TestArpanetScale:
    """The paper's stability claims, at network scale (fluid)."""

    @pytest.fixture(scope="class")
    def traces(self):
        results = {}
        for metric in (DelayMetric(), HopNormalizedMetric()):
            net = build_arpanet_1987()
            traffic = TrafficMatrix.gravity(
                net, 366_000.0, weights=site_weights()
            )
            model = FluidNetworkModel(net, metric, traffic)
            results[metric.name] = model.run(rounds=40)
        return results

    def test_hnspf_settles_dspf_churns(self, traces):
        assert traces["HN-SPF"].settled(churn_tolerance=0.1)
        assert not traces["D-SPF"].settled(churn_tolerance=0.1)

    def test_hnspf_less_overload(self, traces):
        assert traces["HN-SPF"].tail_overload() < \
            0.25 * traces["D-SPF"].tail_overload()

    def test_average_link_model_predicts_fluid_mean(self, traces):
        """The paper's average-link simplification is a reasonable
        approximation of the simultaneous-equilibrium reality: the fluid
        HN-SPF network settles with mean utilization in the same range
        the single-link model predicts for its mean offered load."""
        mean_u = traces["HN-SPF"].tail_mean_utilization()
        assert 0.05 < mean_u < 0.6


def test_persistent_trees_match_rebuilt_trees():
    """Carrying SPF trees between rounds (batched update_costs repair)
    is bit-identical to rebuilding every tree from scratch -- the
    canonical tie-break makes the tree a pure function of the costs."""
    net = build_arpanet_1987()
    traffic = TrafficMatrix.gravity(net, 366_000.0, weights=site_weights())
    persistent = FluidNetworkModel(net, DelayMetric(), traffic)
    rebuilt = FluidNetworkModel(
        build_arpanet_1987(), DelayMetric(),
        TrafficMatrix.gravity(net, 366_000.0, weights=site_weights()),
    )
    for index in range(25):
        fast = persistent.step(index)
        rebuilt._trees = None  # drop the carried trees: full rebuild
        assert fast == rebuilt.step(index)


def test_trees_rebuild_after_topology_change():
    """A link flip invalidates carried trees (repair can't model it)."""
    net = build_ring_network(4)
    traffic = TrafficMatrix.uniform(net, total_bps=40_000.0)
    model = FluidNetworkModel(net, HopNormalizedMetric(), traffic)
    model.step(0)
    victim = net.links_between(0, 1)[0]
    net.set_circuit_state(victim.link_id, False)
    load = model.route_demands()
    assert load[victim.link_id] == 0.0
    net.set_circuit_state(victim.link_id, True)
    load = model.route_demands()
    assert load[victim.link_id] > 0.0
