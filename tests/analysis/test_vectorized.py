"""The numpy paths must agree with the scalar paths.

Each metric writes its transform once and runs it on plain floats for
one link (the PSN) or on numpy arrays for many (the fluid model, the
metric maps).  These tests pin the two runs bit-identical -- for every
metric, each HN-SPF chain with one stage removed and a foreign metric,
on the inputs where rounding and clipping disagree most easily -- and
the scalar and vectorized
equilibrium solvers equal within bisection tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    build_response_map,
    equilibrium_point,
    equilibrium_points,
    reference_link,
)
from repro.metrics import HNSPF_STAGES, DelayMetric, HopNormalizedMetric, MinHopMetric
from repro.metrics.queueing import (
    delay_to_utilization,
    delay_to_utilization_array,
    service_time_s,
    utilization_to_delay_s,
    utilization_to_delay_s_array,
)
from repro.topology import build_arpanet_1987
from repro.topology.arpanet import site_weights
from repro.traffic import TrafficMatrix
from tests.metrics.rtt_metric import RttMetric

ALL_METRICS = [HopNormalizedMetric, DelayMetric, MinHopMetric]

#: The name each HN-SPF ablation goes by: the averaging stage is the
#: paper's smoothing filter.
_ABLATION_NAMES = {"average": "smoothing"}

#: Every metric, HN-SPF once per chain with one stage removed, and a
#: metric from outside the package.
METRIC_VARIANTS = [
    pytest.param(HopNormalizedMetric, id="HopNormalizedMetric"),
    *(
        pytest.param(
            lambda removed=removed: HopNormalizedMetric(stages=tuple(
                stage for stage in HNSPF_STAGES if stage is not removed
            )),
            id="HopNormalizedMetric-"
               f"{_ABLATION_NAMES.get(removed.__name__, removed.__name__)}_removed",
        )
        for removed in HNSPF_STAGES
    ),
    pytest.param(DelayMetric, id="DelayMetric"),
    pytest.param(MinHopMetric, id="MinHopMetric"),
    pytest.param(RttMetric, id="RttMetric"),
]

AUG87_LINKS = list(build_arpanet_1987().links)


@pytest.fixture(scope="module")
def rmap():
    net = build_arpanet_1987()
    traffic = TrafficMatrix.gravity(net, 366_000.0, weights=site_weights())
    return build_response_map(net, traffic)


@pytest.fixture(scope="module")
def link():
    return reference_link("56K-T", propagation_s=0.001)


def test_queueing_transforms_match_scalar():
    utilizations = np.linspace(0.0, 1.2, 50)
    bandwidth = 56_000.0
    delays = utilization_to_delay_s_array(
        utilizations, bandwidth, propagations_s=0.005
    )
    for u, d in zip(utilizations, delays):
        assert d == utilization_to_delay_s(
            float(u), bandwidth, propagation_s=0.005
        )
    back = delay_to_utilization_array(delays, bandwidth, propagations_s=0.005)
    for d, u in zip(delays, back):
        assert u == delay_to_utilization(float(d), bandwidth,
                                         propagation_s=0.005)


@pytest.mark.parametrize("metric_cls", ALL_METRICS)
def test_cost_at_utilization_array_matches_scalar(metric_cls, link):
    metric = metric_cls()
    utilizations = np.linspace(0.0, 1.0, 101)
    vector = metric.cost_at_utilization_array(link, utilizations)
    for u, cost in zip(utilizations, vector):
        assert cost == metric.cost_at_utilization(link, float(u))


def _nudged(delay, hits):
    """The delay within a few ulps of ``delay`` for which ``hits`` holds
    (or ``delay`` itself when none does)."""
    below = above = delay
    for _ in range(64):
        if hits(below):
            return below
        if hits(above):
            return above
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
    return delay


def _tie_delay(metric, link, k):
    """A delay whose raw cost lands exactly on a ``.5`` tie in the band.

    HN-SPF's raw cost is the linear map of the *sample* utilization
    (a tie in the reported cost whenever the average is the sample:
    no averaging stage, or a settled link); D-SPF's is the delay in units.
    """
    state = metric.create_state(link)
    if isinstance(metric, HopNormalizedMetric):
        tie = state.floor + k % (state.max_cost - state.floor) + 0.5
        u = min((tie - state.offset) / state.slope, 0.998)

        def raw(d):
            return state.slope * delay_to_utilization(
                d, link.bandwidth_bps, propagation_s=link.propagation_s,
            ) + state.offset

        start = utilization_to_delay_s(
            u, link.bandwidth_bps, propagation_s=link.propagation_s,
        )
        return _nudged(start, lambda d: raw(d) == tie)
    if isinstance(metric, DelayMetric):
        tie = state.floor + k % (state.max_cost - state.floor) + 0.5
        return _nudged(
            tie * state.ms_per_unit / 1000.0,
            lambda d: d * 1000.0 / state.ms_per_unit == tie,
        )
    return 0.0


def _delay(metric, link, draw):
    kind, x = draw
    zero_load = service_time_s(link.bandwidth_bps) + link.propagation_s
    if kind == "zero-load":
        return zero_load
    if kind == "below-propagation":
        return x * link.propagation_s
    if kind == "saturated":
        return utilization_to_delay_s(
            1.0, link.bandwidth_bps, propagation_s=link.propagation_s
        ) * (1.0 + x)
    if kind == "tie":
        return _tie_delay(metric, link, int(x * 1000))
    return zero_load / (1.0 - x)


DELAY_DRAWS = st.tuples(
    st.sampled_from(
        ["zero-load", "below-propagation", "saturated", "tie", "load"]
    ),
    st.floats(min_value=0.0, max_value=0.999),
)


@pytest.mark.parametrize("make_metric", METRIC_VARIANTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_measured_costs_vector_matches_scalar(make_metric, data):
    """On any subset of the aug87 links, over any delay sequence, the
    array run of the transform equals the scalar run element for element;
    the scalar run returns ints; and the equilibrium map agrees too."""
    metric = make_metric()
    indices = data.draw(st.lists(
        st.integers(0, len(AUG87_LINKS) - 1),
        min_size=1, max_size=24, unique=True,
    ), label="links")
    links = [AUG87_LINKS[i] for i in indices]
    intervals = data.draw(st.integers(1, 10), label="intervals")
    states = [metric.create_state(link) for link in links]
    vstate = metric.create_vector_state(links)
    for _ in range(intervals):
        draws = data.draw(st.lists(
            DELAY_DRAWS, min_size=len(links), max_size=len(links),
        ), label="delays")
        delays = [_delay(metric, l, d) for l, d in zip(links, draws)]
        vector = metric.measured_costs(vstate, np.array(delays))
        for i, (link, state, delay) in enumerate(zip(links, states, delays)):
            scalar = metric.measured_cost(link, state, delay)
            assert type(scalar) is int, (link.link_id, scalar)
            assert vector[i] == scalar, (link.link_id, delay)
        for link, delay in zip(links, delays):
            u = delay_to_utilization(
                delay, link.bandwidth_bps, propagation_s=link.propagation_s
            )
            curve = metric.cost_at_utilization_array(link, [u, 1.0 - u])
            assert curve[0] == metric.cost_at_utilization(link, u)
            assert curve[1] == metric.cost_at_utilization(link, 1.0 - u)


@pytest.mark.parametrize("metric_cls", ALL_METRICS)
def test_equilibrium_points_match_scalar_bisection(metric_cls, rmap, link):
    metric = metric_cls()
    loads = np.linspace(0.0, 4.0, 41)
    vector = equilibrium_points(metric, link, rmap, loads)
    for load, point in zip(loads, vector):
        ref = equilibrium_point(metric, link, rmap, float(load))
        assert point.reported_cost_hops == pytest.approx(
            ref.reported_cost_hops, abs=1e-5
        )
        assert point.utilization == pytest.approx(ref.utilization, abs=1e-5)


def test_equilibrium_points_empty_and_negative(rmap, link):
    assert equilibrium_points(HopNormalizedMetric(), link, rmap, []) == []
    with pytest.raises(ValueError):
        equilibrium_points(HopNormalizedMetric(), link, rmap, [0.5, -1.0])
