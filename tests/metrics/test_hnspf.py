"""Unit and property tests for the HN-SPF metric pipeline (Figure 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import HNSPF_STAGES, HopNormalizedMetric, utilization_to_delay_s
from repro.metrics.base import average, ease_in, limit
from repro.metrics.params import DEFAULT_HNSPF_PARAMS
from repro.topology import Network, line_type


def without(*removed):
    """HN-SPF's chain with ``removed`` taken out: an ablation."""
    return tuple(stage for stage in HNSPF_STAGES if stage not in removed)


def make_link(type_name="56K-T", propagation_s=-1.0):
    net = Network()
    a = net.add_node().node_id
    b = net.add_node().node_id
    link, _ = net.add_circuit(a, b, line_type(type_name), propagation_s)
    return link


def delay_at(link, utilization):
    """The measured delay an M/M/1 link would show at this utilization."""
    return utilization_to_delay_s(
        utilization, link.bandwidth_bps, propagation_s=link.propagation_s
    )


def settle(metric, link, state, utilization, periods=40):
    """Feed a constant utilization until the reported cost stabilizes."""
    cost = state.last_reported
    for _ in range(periods):
        cost = metric.measured_cost(link, state, delay_at(link, utilization))
    return cost


class TestEaseIn:
    def test_new_link_starts_at_max_cost(self):
        metric = HopNormalizedMetric()
        link = make_link()
        assert metric.initial_cost(link) == 90
        state = metric.create_state(link)
        assert state.last_reported == 90

    def test_ease_in_descends_by_max_down_per_period(self):
        metric = HopNormalizedMetric()
        link = make_link()
        state = metric.create_state(link)
        idle = delay_at(link, 0.0)
        costs = [metric.measured_cost(link, state, idle) for _ in range(6)]
        params = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert costs[0] == 90 - params.max_down
        deltas = [a - b for a, b in zip(costs, costs[1:])]
        assert all(0 <= d <= params.max_down for d in deltas)
        assert costs[-1] == 30

    def test_ease_in_can_be_disabled(self):
        metric = HopNormalizedMetric(stages=without(ease_in))
        link = make_link()
        assert metric.initial_cost(link) == 30


class TestSteadyState:
    def test_idle_link_settles_at_min(self):
        metric = HopNormalizedMetric()
        link = make_link()
        state = metric.create_state(link)
        assert settle(metric, link, state, 0.0) == 30

    def test_cost_flat_below_threshold(self):
        metric = HopNormalizedMetric()
        link = make_link()
        for u in (0.1, 0.3, 0.49):
            state = metric.create_state(link)
            assert settle(metric, link, state, u) == 30, u

    def test_cost_rises_above_threshold(self):
        metric = HopNormalizedMetric()
        link = make_link()
        state = metric.create_state(link)
        at_75 = settle(metric, link, state, 0.75)
        assert at_75 == pytest.approx(60, abs=2)

    def test_saturated_link_settles_at_max(self):
        metric = HopNormalizedMetric()
        link = make_link()
        state = metric.create_state(link)
        assert settle(metric, link, state, 0.999) >= 88

    def test_satellite_idle_costs_double(self):
        metric = HopNormalizedMetric()
        sat = make_link("56K-S")
        state = metric.create_state(sat)
        assert settle(metric, sat, state, 0.0) == 60

    def test_satellite_and_terrestrial_equal_when_saturated(self):
        metric = HopNormalizedMetric()
        sat, ter = make_link("56K-S"), make_link("56K-T")
        sat_cost = settle(metric, sat, metric.create_state(sat), 0.999)
        ter_cost = settle(metric, ter, metric.create_state(ter), 0.999)
        assert abs(sat_cost - ter_cost) <= 2


class TestMovementLimits:
    def test_upward_jump_is_rate_limited(self):
        metric = HopNormalizedMetric(stages=without(ease_in))
        link = make_link()
        state = metric.create_state(link)
        settle(metric, link, state, 0.0)
        cost = metric.measured_cost(link, state, delay_at(link, 0.999))
        params = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert cost <= 30 + params.max_up

    def test_downward_fall_is_rate_limited(self):
        metric = HopNormalizedMetric()
        link = make_link()
        state = metric.create_state(link)
        settle(metric, link, state, 0.999)
        before = state.last_reported
        cost = metric.measured_cost(link, state, delay_at(link, 0.0))
        params = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert cost >= before - params.max_down

    def test_march_up_asymmetry(self):
        """A cost oscillating at full amplitude gains one unit per cycle."""
        params = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert params.max_up - params.max_down == 1

    def test_pinned_oscillation_marches_up_one_unit_per_cycle(self):
        """The epsilon-problem counter: feed alternating saturation/idle
        so the raw cost swings past both movement limits; the reported
        cost then climbs one unit per full cycle (max_up - max_down),
        spreading the values of identically-loaded lines over time."""
        metric = HopNormalizedMetric(stages=without(ease_in))
        link = make_link()
        state = metric.create_state(link)
        settle(metric, link, state, 0.0)
        lows, highs = [], []
        for cycle in range(12):
            highs.append(
                metric.measured_cost(link, state, delay_at(link, 0.999))
            )
            lows.append(
                metric.measured_cost(link, state, delay_at(link, 0.0))
            )
        # Skip the start-up transient, then demand the +1 march...
        for earlier, later in zip(lows[2:5], lows[3:6]):
            assert later - earlier == 1
        for earlier, later in zip(highs[2:5], highs[3:6]):
            assert later - earlier == 1
        # ...which stops once the swing reaches the raw-cost range (the
        # march only spreads costs while the limits are pinned).
        assert lows[-1] == lows[-2]
        assert highs[-1] == highs[-2]

    def test_symmetric_limits_do_not_march(self):
        """Ablation: with max_down == max_up the same oscillation goes
        nowhere -- the spreading mechanism is exactly the asymmetry."""
        from dataclasses import replace

        params = {"56K-T": replace(DEFAULT_HNSPF_PARAMS["56K-T"],
                                   max_down=17)}
        metric = HopNormalizedMetric(params=params, stages=without(ease_in))
        link = make_link()
        state = metric.create_state(link)
        settle(metric, link, state, 0.0)
        lows = []
        for cycle in range(12):
            metric.measured_cost(link, state, delay_at(link, 0.999))
            lows.append(
                metric.measured_cost(link, state, delay_at(link, 0.0))
            )
        assert len(set(lows[4:10])) == 1  # flat: no march

    def test_limits_can_be_disabled_for_ablation(self):
        """Same overload ramp, with and without movement limits.

        At period 2 the averaged utilization (~0.75) maps to raw cost ~60;
        the limited metric can only have reached 30 + 17 = 47 by then.
        """
        results = {}
        for limited in (True, False):
            metric = HopNormalizedMetric(
                stages=without(ease_in) if limited else without(ease_in, limit)
            )
            link = make_link()
            state = metric.create_state(link)
            settle(metric, link, state, 0.0)
            metric.measured_cost(link, state, delay_at(link, 0.999))
            results[limited] = metric.measured_cost(
                link, state, delay_at(link, 0.999)
            )
        params = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert results[True] == 30 + params.max_up
        assert results[False] > results[True]


class TestAveragingFilter:
    def test_single_spike_is_halved(self):
        metric = HopNormalizedMetric(stages=without(ease_in))
        link = make_link()
        state = metric.create_state(link)
        settle(metric, link, state, 0.0)
        metric.measured_cost(link, state, delay_at(link, 1.0))
        # avg utilization = 0.5 -> raw cost exactly at threshold knee = 30
        assert state.last_average == pytest.approx(0.5, abs=0.01)

    def test_custom_smoothing(self):
        """Smoothing is the ``average`` stage: the chain without it (and
        without the movement limit) reports the map of the sample itself."""
        metric = HopNormalizedMetric(stages=without(ease_in, average, limit))
        link = make_link()
        state = metric.create_state(link)
        cost = metric.measured_cost(link, state, delay_at(link, 0.8))
        assert cost == round(metric.cost_at_utilization(link, 0.8))
        assert state.last_average == 0.0


class TestBoundsAndThresholds:
    def test_change_threshold_is_line_type_min_change(self):
        metric = HopNormalizedMetric()
        assert metric.change_threshold(make_link()) == 13
        assert metric.change_threshold(make_link("9.6K-T")) == 33

    def test_long_propagation_bumps_lower_bound(self):
        metric = HopNormalizedMetric()
        nominal = make_link("56K-T")
        long_haul = make_link("56K-T", propagation_s=0.250)
        assert metric.min_cost_for(long_haul) > metric.min_cost_for(nominal)
        assert metric.min_cost_for(long_haul) <= 90

    def test_unknown_line_type_raises(self):
        from dataclasses import replace

        metric = HopNormalizedMetric()
        link = make_link()
        weird = replace(link.line_type, name="OC-48")
        link.line_type = weird
        with pytest.raises(KeyError, match="OC-48"):
            metric.create_state(link)

    def test_cost_band_and_movement_limits(self):
        params = DEFAULT_HNSPF_PARAMS["56K-T"]
        long_haul = make_link("56K-T", propagation_s=0.250)
        metric = HopNormalizedMetric()
        assert metric.cost_bounds(long_haul) == (
            metric.min_cost_for(long_haul), params.max_cost
        )
        assert metric.movement_limits(long_haul) == (
            params.max_up, params.max_down
        )
        unlimited = HopNormalizedMetric(stages=without(limit))
        assert unlimited.movement_limits(long_haul) is None

    def test_equilibrium_map_matches_params(self):
        metric = HopNormalizedMetric()
        link = make_link()
        assert metric.cost_at_utilization(link, 0.0) == 30.0
        assert metric.cost_at_utilization(link, 1.0) == 90.0
        assert metric.idle_cost(link) == 30.0


@settings(max_examples=60, deadline=None)
@given(
    utilizations=st.lists(
        st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=30
    ),
    type_name=st.sampled_from(["56K-T", "56K-S", "9.6K-T", "9.6K-S"]),
)
def test_property_cost_always_within_bounds(utilizations, type_name):
    """Invariant: every reported cost lies in [min, max] for its type."""
    metric = HopNormalizedMetric()
    link = make_link(type_name)
    state = metric.create_state(link)
    params = DEFAULT_HNSPF_PARAMS[type_name]
    for u in utilizations:
        cost = metric.measured_cost(link, state, delay_at(link, u))
        assert params.min_cost <= cost <= params.max_cost


@settings(max_examples=60, deadline=None)
@given(
    utilizations=st.lists(
        st.floats(min_value=0.0, max_value=0.999), min_size=2, max_size=30
    ),
)
def test_property_movement_always_limited(utilizations):
    """Invariant: successive reports never move more than the limits."""
    metric = HopNormalizedMetric()
    link = make_link()
    state = metric.create_state(link)
    params = DEFAULT_HNSPF_PARAMS["56K-T"]
    previous = state.last_reported
    for u in utilizations:
        cost = metric.measured_cost(link, state, delay_at(link, u))
        assert -params.max_down <= cost - previous <= params.max_up
        previous = cost


@settings(max_examples=40, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=0.999))
def test_property_equilibrium_map_monotone(u):
    metric = HopNormalizedMetric()
    link = make_link()
    lower = metric.cost_at_utilization(link, u)
    higher = metric.cost_at_utilization(link, min(u + 0.05, 1.0))
    assert higher >= lower
