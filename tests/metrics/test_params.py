"""Tests for the per-line-type parameter sets against the paper's anchors."""

import pytest

from repro.analysis import reference_link
from repro.metrics import DelayMetric, HopNormalizedMetric
from repro.metrics.params import (
    DEFAULT_DSPF_PARAMS,
    DEFAULT_HNSPF_PARAMS,
    HOP_UNITS,
    DspfParams,
    HnspfParams,
)
from repro.topology import LINE_TYPES, line_type


class TestHnspfAnchors:
    """Every constant the paper states, checked literally."""

    def test_56k_terrestrial_min_30_max_90(self):
        p = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert p.min_cost == 30
        assert p.max_cost == 90

    def test_max_is_two_additional_hops(self):
        # "the largest value it can report is only two additional hops in a
        # homogeneous network"
        p = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert p.max_cost == p.min_cost + 2 * HOP_UNITS

    def test_56k_threshold_is_50_percent(self):
        assert DEFAULT_HNSPF_PARAMS["56K-T"].utilization_threshold == 0.5

    def test_satellite_idle_at_most_twice_terrestrial(self):
        # "a 56 kb/s satellite trunk can appear no more than twice as
        # expensive as its terrestrial counterpart"
        t = DEFAULT_HNSPF_PARAMS["56K-T"]
        s = DEFAULT_HNSPF_PARAMS["56K-S"]
        assert s.min_cost == 2 * t.min_cost
        assert s.max_cost == t.max_cost  # equal when highly utilized

    def test_full_96_about_7x_idle_56(self):
        # "a fully utilized 9.6 kb/s line can report a value only about 7
        # times greater than that by an idle 56 kb/s line"
        ratio = DEFAULT_HNSPF_PARAMS["9.6K-T"].max_cost / \
            DEFAULT_HNSPF_PARAMS["56K-T"].min_cost
        assert 6.0 <= ratio <= 8.0

    def test_idle_56_satellite_cheaper_than_idle_96(self):
        # "an idle 56 kb/s satellite line appears more favorable than an
        # idle 9.6 kb/s line"
        assert DEFAULT_HNSPF_PARAMS["56K-S"].min_cost < \
            DEFAULT_HNSPF_PARAMS["9.6K-T"].min_cost

    def test_max_is_3x_zero_prop_min_for_all_types(self):
        # "the maximum value for a particular line is approximately three
        # times the minimum value for a zero-propagation-delay line of the
        # same type"
        for name in ("56K-T", "9.6K-T"):
            p = DEFAULT_HNSPF_PARAMS[name]
            assert p.max_cost == 3 * p.min_cost
        for sat, ter in (("56K-S", "56K-T"), ("9.6K-S", "9.6K-T")):
            assert DEFAULT_HNSPF_PARAMS[sat].max_cost == \
                3 * DEFAULT_HNSPF_PARAMS[ter].min_cost

    def test_movement_limits_are_about_half_a_hop(self):
        # up: "a little more than a half-hop"; down one unit less.
        p = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert p.min_cost // 2 < p.max_up <= p.min_cost // 2 + 3
        assert p.max_down == p.max_up - 1

    def test_min_change_a_little_less_than_half_hop(self):
        p = DEFAULT_HNSPF_PARAMS["56K-T"]
        assert p.min_cost // 2 - 3 <= p.min_change < p.min_cost // 2

    def test_every_line_type_has_params(self):
        assert set(DEFAULT_HNSPF_PARAMS) == set(LINE_TYPES)


class TestHnspfParamsBehaviour:
    def test_cost_flat_below_threshold(self):
        metric, link = HopNormalizedMetric(), reference_link("56K-T")
        assert metric.cost_at_utilization(link, 0.0) == 30
        assert metric.cost_at_utilization(link, 0.3) == 30
        assert metric.cost_at_utilization(link, 0.5) == pytest.approx(30)

    def test_cost_linear_above_threshold(self):
        metric, link = HopNormalizedMetric(), reference_link("56K-T")
        assert metric.cost_at_utilization(link, 0.75) == pytest.approx(60)
        assert metric.cost_at_utilization(link, 1.0) == pytest.approx(90)

    def test_slope_and_offset_consistent(self):
        for p in DEFAULT_HNSPF_PARAMS.values():
            assert p.slope * 1.0 + p.offset == pytest.approx(p.max_cost)
            assert p.slope * p.utilization_threshold + p.offset == \
                pytest.approx(p.min_cost)

    def test_validation_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            HnspfParams("x", min_cost=0, max_cost=90,
                        utilization_threshold=0.5,
                        max_up=17, max_down=16, min_change=13)
        with pytest.raises(ValueError):
            HnspfParams("x", min_cost=30, max_cost=20,
                        utilization_threshold=0.5,
                        max_up=17, max_down=16, min_change=13)
        with pytest.raises(ValueError):
            HnspfParams("x", min_cost=30, max_cost=900,
                        utilization_threshold=0.5,
                        max_up=17, max_down=16, min_change=13)

    def test_validation_enforces_march_up_asymmetry(self):
        # Anything other than the paper's asymmetry (or the symmetric
        # ablation variant) is rejected.
        with pytest.raises(ValueError):
            HnspfParams("x", min_cost=30, max_cost=90,
                        utilization_threshold=0.5,
                        max_up=17, max_down=15, min_change=13)
        with pytest.raises(ValueError):
            HnspfParams("x", min_cost=30, max_cost=90,
                        utilization_threshold=0.5,
                        max_up=17, max_down=18, min_change=13)
        # Symmetric limits are allowed, for ablation studies only.
        symmetric = HnspfParams("x", min_cost=30, max_cost=90,
                                utilization_threshold=0.5,
                                max_up=17, max_down=17, min_change=13)
        assert symmetric.max_down == symmetric.max_up

    def test_validation_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            HnspfParams("x", min_cost=30, max_cost=90,
                        utilization_threshold=1.0,
                        max_up=17, max_down=16, min_change=13)

    def test_derive_reproduces_56k_anchor(self):
        derived = HnspfParams.derive(line_type("56K-T"))
        assert derived.min_cost == 30
        assert derived.max_cost == 90

    def test_derive_reproduces_96k_anchor(self):
        derived = HnspfParams.derive(line_type("9.6K-T"))
        assert derived.min_cost == 70
        assert derived.max_cost == 210


class TestDspfParams:
    def test_56k_bias_is_2_units(self):
        # "2 units (this is the delay metric's bias value for a 56 kb/s
        # line)"
        assert DEFAULT_DSPF_PARAMS["56K-T"].bias == 2

    def test_96k_bias_larger(self):
        assert DEFAULT_DSPF_PARAMS["9.6K-T"].bias > \
            DEFAULT_DSPF_PARAMS["56K-T"].bias

    def test_loaded_96_about_127x_idle_56(self):
        # "a heavily loaded 9.6 kb/s line can appear 127 times less
        # attractive than a lightly loaded 56 kb/s line"
        ratio = DEFAULT_DSPF_PARAMS["9.6K-T"].max_cost / \
            DEFAULT_DSPF_PARAMS["56K-T"].bias
        assert 100 <= ratio <= 130

    def test_loaded_56_about_20x_idle_56(self):
        # The 8-bit field lets a 56 kb/s line range far beyond 20x; the
        # 20x figure is about *typical* heavy loading (delay ~ 256 ms).
        p = DEFAULT_DSPF_PARAMS["56K-T"]
        metric, link = DelayMetric(), reference_link("56K-T")
        heavy_units = metric.measured_cost(
            link, metric.create_state(link), 0.256
        )
        assert heavy_units == pytest.approx(20 * p.bias, abs=2)

    def test_quantization_floors_at_bias(self):
        # Zero propagation: the idle floor is the bias alone.
        p = DEFAULT_DSPF_PARAMS["56K-T"]
        metric = DelayMetric()
        link = reference_link("56K-T", propagation_s=0.0)
        state = metric.create_state(link)
        assert metric.measured_cost(link, state, 0.0) == p.bias
        assert metric.measured_cost(link, state, 1e6) == p.max_cost

    def test_validation(self):
        with pytest.raises(ValueError):
            DspfParams("x", bias=0)
        with pytest.raises(ValueError):
            DspfParams("x", bias=2, ms_per_unit=0.0)
