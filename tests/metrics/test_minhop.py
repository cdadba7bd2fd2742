"""Unit tests for the min-hop baseline metric."""

import pytest

from repro.metrics import MinHopMetric
from repro.topology import Network, line_type


def make_link(type_name="56K-T"):
    net = Network()
    a = net.add_node().node_id
    b = net.add_node().node_id
    link, _ = net.add_circuit(a, b, line_type(type_name))
    return link


def test_constant_cost_regardless_of_load():
    metric = MinHopMetric()
    link = make_link()
    state = metric.create_state(link)
    assert metric.measured_cost(link, state, 0.0) == 30
    assert metric.measured_cost(link, state, 100.0) == 30


def test_same_cost_for_all_line_types():
    metric = MinHopMetric()
    costs = {
        metric.initial_cost(make_link(t))
        for t in ("56K-T", "9.6K-T", "56K-S")
    }
    assert costs == {30}


def test_equilibrium_map_is_flat():
    metric = MinHopMetric()
    link = make_link()
    assert metric.cost_at_utilization(link, 0.0) == \
        metric.cost_at_utilization(link, 0.999) == 30.0


def test_never_reports_load_changes():
    metric = MinHopMetric()
    assert metric.change_threshold(make_link()) > 10 ** 6


def test_custom_hop_cost():
    metric = MinHopMetric(hop_cost=1)
    assert metric.initial_cost(make_link()) == 1


def test_rejects_nonpositive_hop_cost():
    with pytest.raises(ValueError):
        MinHopMetric(hop_cost=0)



def test_cost_band_is_the_hop_cost():
    metric = MinHopMetric(hop_cost=7)
    link = make_link()
    assert metric.cost_bounds(link) == (7, 7)
    assert metric.movement_limits(link) is None
