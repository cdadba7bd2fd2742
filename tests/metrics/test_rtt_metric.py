"""The stage seam, proved by a metric from outside the package.

:class:`~tests.metrics.rtt_metric.RttMetric` is four stages over its own
state; :class:`~repro.metrics.base.LinkMetric` runs it on one link or on
arrays, draws its map, and the simulation and invariant monitor run it
like any library metric.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_arpanet_1987, build_two_region_network
from repro.traffic import TrafficMatrix
from tests.metrics.rtt_metric import BASE, MAX_PENALTY, RttMetric

LINKS = list(build_arpanet_1987().links)[:12]


@settings(max_examples=30, deadline=None)
@given(rounds=st.lists(
    st.lists(st.floats(0.0, 0.5), min_size=len(LINKS), max_size=len(LINKS)),
    min_size=1, max_size=8,
))
def test_scalar_equals_array_per_element(rounds):
    metric = RttMetric()
    states = [metric.create_state(link) for link in LINKS]
    vstate = metric.create_vector_state(LINKS)
    for delays in rounds:
        vector = metric.measured_costs(vstate, np.array(delays))
        for i, (link, state) in enumerate(zip(LINKS, states)):
            scalar = metric.measured_cost(link, state, delays[i])
            assert type(scalar) is int
            assert vector[i] == scalar
            assert BASE <= scalar <= BASE + MAX_PENALTY


def test_map_does_not_decrease():
    metric = RttMetric()
    utilizations = np.linspace(0.0, 1.0, 101)
    for link in LINKS:
        curve = [metric.cost_at_utilization(link, float(u)) for u in utilizations]
        assert curve == sorted(curve)
        assert curve[0] == metric.idle_cost(link) == BASE
        assert list(metric.cost_at_utilization_array(link, utilizations)) == curve


def test_runs_under_strict_invariants():
    built = build_two_region_network()
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=90_000.0
    )
    simulation = NetworkSimulation(
        built.network, RttMetric(), traffic,
        ScenarioConfig(duration_s=120.0, warmup_s=10.0, seed=3,
                       check_invariants="strict"),
    )
    report = simulation.run()
    assert simulation.invariant_monitor.checks_run > 0
    assert report.invariant_violations == []
    assert report.delivered_packets > 0
