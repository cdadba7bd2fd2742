"""Tests for the canned scenario library."""

import pytest

from repro.sim import (
    NetworkSimulation,
    ScenarioConfig,
    build_scenario,
    scenario_names,
)


def test_names_cover_paper_setups():
    names = scenario_names()
    for expected in ("may87", "aug87", "arpanet-1969", "milnet-dspf",
                     "milnet-hnspf", "two-region-dspf",
                     "two-region-hnspf"):
        assert expected in names


def test_unknown_scenario_lists_known():
    with pytest.raises(KeyError, match="may87"):
        build_scenario("nsfnet")


#: The short run shape these tests build their scenarios with.
SHORT = ScenarioConfig(duration_s=30.0, warmup_s=5.0, seed=3)


def test_may87_is_dspf_on_arpanet():
    sim = build_scenario("may87", SHORT)
    assert isinstance(sim, NetworkSimulation)
    assert sim.metric.name == "D-SPF"
    assert len(sim.network) == 57
    assert sim.traffic.total_bps() == pytest.approx(366_260.0)


def test_aug87_offers_13_percent_more():
    may = build_scenario("may87", SHORT)
    aug = build_scenario("aug87", SHORT)
    assert aug.metric.name == "HN-SPF"
    assert aug.traffic.total_bps() / may.traffic.total_bps() == \
        pytest.approx(1.13, abs=0.01)


def test_1969_scenario_is_bellman_ford():
    sim = build_scenario("arpanet-1969", SHORT)
    assert isinstance(sim, NetworkSimulation)
    assert sim.metric.name == "BF-1969"


def test_explicit_config_wins():
    """The run takes the config it is given, else ScenarioConfig()."""
    config = ScenarioConfig(duration_s=42.0, warmup_s=1.0, seed=9)
    assert build_scenario("two-region-hnspf", config).config is config
    assert build_scenario("two-region-hnspf").config == ScenarioConfig()


@pytest.mark.slow
def test_scenarios_actually_run():
    for name in scenario_names():
        sim = build_scenario(
            name, ScenarioConfig(duration_s=40.0, warmup_s=10.0, seed=3)
        )
        report = sim.run()
        assert report.delivered_packets > 0, name
