"""Tests for ScenarioConfig knobs that deserve explicit coverage."""

from dataclasses import fields

import pytest

from repro.metrics import HopNormalizedMetric
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_ring_network
from repro.traffic import TrafficMatrix


def run_sim(**config_kwargs):
    defaults = dict(duration_s=200.0, warmup_s=20.0, seed=0)
    defaults.update(config_kwargs)
    net = build_ring_network(4)
    sim = NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix.uniform(net, 30_000.0),
        ScenarioConfig(**defaults),
    )
    return sim, sim.run()


def test_config_fields_are_the_settings_a_run_takes():
    """One configuration channel, and only settings a caller sets: the
    paper's fixed constants (measurement interval, mean packet size,
    link buffer) are not fields."""
    assert [field.name for field in fields(ScenarioConfig)] == [
        "duration_s", "warmup_s", "seed", "multipath", "line_error_rate",
        "flow_control_window", "trace", "faults", "check_invariants",
        "defenses", "metrics",
    ]


def test_multipath_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(multipath="broadcast")


@pytest.mark.parametrize("value", [1, "yes", None, 0.0])
def test_defenses_accepts_only_a_bool(value):
    with pytest.raises(ValueError):
        ScenarioConfig(defenses=value)


def test_seed_changes_realization_not_shape():
    _, a = run_sim(seed=1)
    _, b = run_sim(seed=2)
    assert a.delivered_packets != b.delivered_packets
    assert a.delivery_ratio > 0.99
    assert b.delivery_ratio > 0.99

