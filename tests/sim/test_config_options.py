"""Tests for ScenarioConfig knobs that deserve explicit coverage."""

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


def test_measurement_interval_honored():
    """A 5 s averaging period doubles the utilization sampling rate."""
    sim_fast, _ = run_sim(measurement_interval_s=5.0)
    sim_slow, _ = run_sim(measurement_interval_s=20.0)
    fast_samples = len(sim_fast.stats.utilization_history[0])
    slow_samples = len(sim_slow.stats.utilization_history[0])
    assert fast_samples == pytest.approx(4 * slow_samples, rel=0.15)


def test_shorter_interval_still_respects_50s_cap():
    sim, _ = run_sim(measurement_interval_s=5.0)
    series = sim.stats.cost_series(0)
    gaps = [b - a for (a, _), (b, _) in zip(series, series[1:])]
    assert all(gap <= 51.0 for gap in gaps)


def test_buffer_size_changes_drop_behaviour():
    """Tiny buffers drop sooner under the same bursty load."""
    _, small = run_sim(buffer_packets=2, seed=7)
    _, large = run_sim(buffer_packets=200, seed=7)
    assert small.congestion_drops >= large.congestion_drops


def test_mean_packet_size_scales_packet_rate():
    _, small_packets = run_sim(mean_packet_bits=300.0)
    _, large_packets = run_sim(mean_packet_bits=1200.0)
    assert small_packets.offered_packets > \
        2 * large_packets.offered_packets


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

