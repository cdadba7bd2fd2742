"""Tests for dynamic (cobweb) behaviour (Figures 11 and 12)."""

import pytest

from repro.analysis import (
    build_response_map,
    cobweb_trace,
    equilibrium_point,
    reference_link,
)
from repro.metrics import HNSPF_STAGES, DelayMetric, HopNormalizedMetric
from repro.metrics.base import limit
from repro.metrics.params import DEFAULT_HNSPF_PARAMS
from repro.topology import build_arpanet_1987
from repro.topology.arpanet import site_weights
from repro.traffic import TrafficMatrix


@pytest.fixture(scope="module")
def rmap():
    net = build_arpanet_1987()
    traffic = TrafficMatrix.gravity(net, 366_000.0, weights=site_weights())
    return build_response_map(net, traffic)


@pytest.fixture(scope="module")
def link():
    return reference_link("56K-T", propagation_s=0.001)


class TestFigure11Dspf:
    def test_metastable_converges_from_nearby(self, rmap, link):
        metric = DelayMetric()
        eq = equilibrium_point(metric, link, rmap, 1.0)
        trace = cobweb_trace(
            metric, link, rmap, 1.0, periods=50,
            start_hops=eq.reported_cost_hops,
        )
        assert trace.converged(tolerance=0.5)

    def test_diverges_from_distant_start(self, rmap, link):
        """A start far from equilibrium swings to full amplitude: the
        link alternates between oversubscribed and idle."""
        metric = DelayMetric()
        trace = cobweb_trace(metric, link, rmap, 1.0, periods=50,
                             start_hops=8.0)
        assert not trace.converged(tolerance=1.0)
        assert trace.amplitude() > 10.0
        tail_util = trace.utilizations[-10:]
        assert min(tail_util) < 0.05   # idle phases
        assert max(tail_util) > 0.95   # oversubscribed phases

    def test_heavier_load_is_unstable_even_closer_in(self, rmap, link):
        metric = DelayMetric()
        trace = cobweb_trace(metric, link, rmap, 2.0, periods=60,
                             start_hops=5.0)
        assert trace.amplitude() > 5.0


class TestFigure12Hnspf:
    def test_converges_from_ease_in(self, rmap, link):
        """A new link starts at max cost and is eased in gradually."""
        metric = HopNormalizedMetric()
        trace = cobweb_trace(metric, link, rmap, 1.0, periods=60)
        assert trace.reported_hops[0] == pytest.approx(3.0)
        assert trace.converged(tolerance=0.5)
        # Cost descends monotonically during the ease-in phase.
        early = trace.reported_hops[:4]
        assert early == sorted(early, reverse=True)

    def test_converges_from_any_start(self, rmap, link):
        metric = HopNormalizedMetric()
        for start in (1.0, 2.0, 3.0):
            trace = cobweb_trace(metric, link, rmap, 1.0, periods=60,
                                 start_hops=start)
            assert trace.converged(tolerance=0.5), start

    def test_oscillation_bounded_by_movement_limits(self, rmap, link):
        """Even under extreme load the per-period swing is capped."""
        metric = HopNormalizedMetric()
        params = DEFAULT_HNSPF_PARAMS["56K-T"]
        trace = cobweb_trace(metric, link, rmap, 4.0, periods=80)
        steps = [
            abs(b - a) * 30.0
            for a, b in zip(trace.reported_hops, trace.reported_hops[1:])
        ]
        assert max(steps) <= params.max_up + 1e-9

    def test_unbounded_variant_oscillates_wider(self, rmap, link):
        """Ablation: removing the movement limits widens the swing (the
        paper: 'Without this bound, HN-SPF would oscillate with a much
        larger amplitude, but still would not be unstable like D-SPF')."""
        bounded = cobweb_trace(
            HopNormalizedMetric(), link, rmap, 3.0, periods=80
        )
        no_limit = [stage for stage in HNSPF_STAGES if stage is not limit]
        unbounded = cobweb_trace(
            HopNormalizedMetric(stages=no_limit), link, rmap, 3.0, periods=80
        )
        assert unbounded.amplitude() >= bounded.amplitude()
        # ...but still bounded by the 3-hop cap, unlike D-SPF.
        assert max(unbounded.reported_hops) <= 3.0 + 1e-9


def test_trace_lengths(rmap, link):
    trace = cobweb_trace(HopNormalizedMetric(), link, rmap, 1.0, periods=25)
    assert len(trace.reported_hops) == 26
    assert len(trace.utilizations) == 25


def test_bad_periods_rejected(rmap, link):
    with pytest.raises(ValueError):
        cobweb_trace(HopNormalizedMetric(), link, rmap, 1.0, periods=0)


def test_mean_tail(rmap, link):
    trace = cobweb_trace(HopNormalizedMetric(), link, rmap, 0.1, periods=30)
    assert trace.mean_tail() == pytest.approx(1.0, abs=0.1)
