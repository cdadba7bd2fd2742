"""Unit tests for the D-SPF delay metric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import DelayMetric, utilization_to_delay_s
from repro.metrics.params import DEFAULT_DSPF_PARAMS
from repro.topology import Network, line_type
from repro.units import MAX_ROUTING_UNITS


def make_link(type_name="56K-T", propagation_s=0.003):
    net = Network()
    a = net.add_node().node_id
    b = net.add_node().node_id
    link, _ = net.add_circuit(a, b, line_type(type_name), propagation_s)
    return link


def delay_at(link, utilization):
    return utilization_to_delay_s(
        utilization, link.bandwidth_bps, propagation_s=link.propagation_s
    )


def test_idle_cost_near_bias():
    metric = DelayMetric()
    link = make_link()
    assert metric.initial_cost(link) == pytest.approx(2, abs=1)


def test_cost_tracks_measured_delay_directly():
    """No filtering, no movement limits: the metric IS the delay."""
    metric = DelayMetric()
    link = make_link()
    state = metric.create_state(link)
    low = metric.measured_cost(link, state, delay_at(link, 0.1))
    high = metric.measured_cost(link, state, delay_at(link, 0.95))
    again_low = metric.measured_cost(link, state, delay_at(link, 0.1))
    assert high > 5 * low
    assert again_low == low  # full swing back: nothing damps it


def test_wide_range_56k():
    """A loaded 56 kb/s line can look ~20x (and worse) vs idle."""
    metric = DelayMetric()
    link = make_link()
    state = metric.create_state(link)
    idle = metric.measured_cost(link, state, delay_at(link, 0.0))
    loaded = metric.measured_cost(link, state, 0.256)  # 256 ms measured
    assert loaded >= 18 * idle


def test_wide_range_96k_vs_56k():
    """A saturated 9.6 kb/s line ~127x an idle 56 kb/s line."""
    metric = DelayMetric()
    slow = make_link("9.6K-T")
    fast = make_link("56K-T")
    state = metric.create_state(slow)
    saturated = metric.measured_cost(slow, state, delay_at(slow, 0.999))
    idle_fast = metric.initial_cost(fast)
    assert saturated / idle_fast >= 100


def test_cost_capped_at_8_bits():
    metric = DelayMetric()
    link = make_link()
    state = metric.create_state(link)
    assert metric.measured_cost(link, state, 1e6) == MAX_ROUTING_UNITS


def test_satellite_idle_cost_includes_propagation():
    metric = DelayMetric()
    sat = make_link("56K-S", propagation_s=-1.0)
    ter = make_link("56K-T")
    assert metric.initial_cost(sat) > 10 * metric.initial_cost(ter)


def test_idle_satellite_about_twice_idle_96():
    # "an idle 56 kb/s satellite line ... appearing about twice as
    # expensive (as an idle 9.6 kb/s line) with the delay metric"
    metric = DelayMetric()
    sat = make_link("56K-S", propagation_s=-1.0)
    slow = make_link("9.6K-T", propagation_s=0.060)
    ratio = metric.initial_cost(sat) / metric.initial_cost(slow)
    assert 1.5 <= ratio <= 3.5


def test_cost_never_below_idle_floor():
    metric = DelayMetric()
    link = make_link()
    state = metric.create_state(link)
    assert metric.measured_cost(link, state, 0.0) == metric.initial_cost(link)


def test_cost_band_runs_from_idle_cost_to_8_bit_cap():
    metric = DelayMetric()
    link = make_link()
    assert metric.cost_bounds(link) == (
        metric.initial_cost(link), MAX_ROUTING_UNITS
    )
    assert metric.movement_limits(link) is None


def test_equilibrium_map_is_mm1():
    metric = DelayMetric()
    link = make_link()
    idle = metric.cost_at_utilization(link, 0.0)
    half = metric.cost_at_utilization(link, 0.5)
    # M/M/1: delay doubles at 50% utilization (plus propagation effects).
    assert half >= 1.5 * idle


def test_unknown_line_type_raises():
    from dataclasses import replace

    metric = DelayMetric()
    link = make_link()
    link.line_type = replace(link.line_type, name="T3")
    with pytest.raises(KeyError, match="T3"):
        metric.params_for(link)


def test_change_threshold_positive():
    metric = DelayMetric()
    assert metric.change_threshold(make_link()) > 0


def test_params_override():
    custom = DEFAULT_DSPF_PARAMS["56K-T"].__class__(
        line_type_name="56K-T", bias=5
    )
    metric = DelayMetric(params={"56K-T": custom})
    assert metric.params_for(make_link()).bias == 5


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=10.0))
def test_property_cost_in_valid_range(delay_s):
    metric = DelayMetric()
    link = make_link()
    state = metric.create_state(link)
    cost = metric.measured_cost(link, state, delay_s)
    assert metric.initial_cost(link) <= cost <= MAX_ROUTING_UNITS


@settings(max_examples=50, deadline=None)
@given(
    d1=st.floats(min_value=0.0, max_value=5.0),
    d2=st.floats(min_value=0.0, max_value=5.0),
)
def test_property_cost_monotone_in_delay(d1, d2):
    metric = DelayMetric()
    link = make_link()
    state = metric.create_state(link)
    c1 = metric.measured_cost(link, state, d1)
    c2 = metric.measured_cost(link, state, d2)
    if d1 <= d2:
        assert c1 <= c2
    else:
        assert c1 >= c2
