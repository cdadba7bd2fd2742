"""Tests for delay-percentile reporting."""

import pytest

from repro.metrics import HopNormalizedMetric
from repro.psn.packet import Packet, PacketKind
from repro.sim import NetworkSimulation, ScenarioConfig, StatsCollector
from repro.topology import build_ring_network
from repro.traffic import TrafficMatrix


def delivered(stats, delay_s, when=100.0):
    packet = Packet(
        kind=PacketKind.DATA, src=0, dst=1,
        size_bits=600.0, created_s=when - delay_s, hop_count=1,
    )
    stats.packet_delivered(packet, when)


def test_percentiles_of_known_distribution():
    stats = StatsCollector(build_ring_network(4))
    for i in range(100):
        delivered(stats, delay_s=(i + 1) / 1000.0)  # 1..100 ms
    assert stats.delay_percentile_ms(0.50) == pytest.approx(51.0, abs=1.5)
    assert stats.delay_percentile_ms(0.90) == pytest.approx(91.0, abs=1.5)
    assert stats.delay_percentile_ms(0.99) == pytest.approx(100.0, abs=1.5)


def _reference_percentile_ms(delays_s, fraction):
    ordered = sorted(delays_s)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)] \
        * 1000.0


def test_one_sort_gives_every_fraction():
    """The helper sorts once; each of its values must equal the
    per-fraction view and a from-scratch sort of the same samples."""
    stats = StatsCollector(build_ring_network(4))
    delays_s = [((i * 7919) % 1000 + 1) / 1e5 for i in range(997)]
    for delay_s in delays_s:
        delivered(stats, delay_s=delay_s)
    fractions = (0.0, 0.25, 0.50, 0.90, 0.99, 1.0)
    together = stats.delay_percentiles_ms(fractions)
    assert together == tuple(
        stats.delay_percentile_ms(f) for f in fractions
    )
    assert together == tuple(
        _reference_percentile_ms(stats._delay_reservoir, f)
        for f in fractions
    )
    assert stats.delay_percentiles_ms() == tuple(
        stats.delay_percentile_ms(f) for f in (0.50, 0.90, 0.99)
    )


def test_percentiles_empty():
    stats = StatsCollector(build_ring_network(4))
    assert stats.delay_percentile_ms(0.5) == 0.0
    assert stats.delay_percentiles_ms() == (0.0, 0.0, 0.0)


def test_percentile_bounds_checked():
    stats = StatsCollector(build_ring_network(4))
    with pytest.raises(ValueError):
        stats.delay_percentile_ms(1.5)
    with pytest.raises(ValueError):
        stats.delay_percentiles_ms((0.5, -0.1))


def test_report_carries_percentiles():
    net = build_ring_network(4)
    sim = NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix.uniform(net, 30_000.0),
        ScenarioConfig(duration_s=120.0, warmup_s=20.0),
    )
    report = sim.run()
    assert 0 < report.delay_p50_ms <= report.delay_p90_ms \
        <= report.delay_p99_ms
    assert (report.delay_p50_ms, report.delay_p90_ms,
            report.delay_p99_ms) == tuple(
        _reference_percentile_ms(sim.stats._delay_reservoir, f)
        for f in (0.50, 0.90, 0.99)
    )
    # Mean one-way delay (RTT/2) sits between the median and the p99.
    assert report.delay_p50_ms <= report.round_trip_delay_ms / 2.0 \
        <= report.delay_p99_ms


def test_reservoir_bounds_memory():
    stats = StatsCollector(build_ring_network(4))
    stats._reservoir_limit = 100
    for i in range(1000):
        delivered(stats, delay_s=0.01)
    assert len(stats._delay_reservoir) == 100


def test_reservoir_keeps_late_deliveries():
    """Once the reservoir is full, a late delay is as likely to be kept
    as an early one: 1 000 delays of 10 ms then 9 000 of 100 ms read a
    100-ms median, with about a tenth of the samples at 10 ms."""
    stats = StatsCollector(build_ring_network(4))
    stats._reservoir_limit = 100
    for _ in range(1_000):
        delivered(stats, delay_s=0.010)
    for _ in range(9_000):
        delivered(stats, delay_s=0.100)
    assert len(stats._delay_reservoir) == 100
    assert stats.delay_percentile_ms(0.50) == pytest.approx(100.0)
    assert stats.delay_percentile_ms(0.90) == pytest.approx(100.0)
    early = sum(1 for delay_s in stats._delay_reservoir if delay_s < 0.05)
    assert 2 <= early <= 25  # binomial: mean 10, sd 3


def test_reservoir_is_uniform_over_deliveries():
    """Delivery i of n carries delay i / n: a uniform sample of 1 000
    has about 100 in each tenth of the run, and the same seed keeps
    the same sample."""
    def sample():
        stats = StatsCollector(build_ring_network(4))
        stats._reservoir_limit = 1_000
        n = 100_000
        for i in range(n):
            delivered(stats, delay_s=i / n)
        return list(stats._delay_reservoir)

    kept = sample()
    assert len(kept) == 1_000
    tenths = [0] * 10
    for delay_s in kept:
        tenths[min(int(delay_s * 10), 9)] += 1
    assert all(60 <= count <= 140 for count in tenths), tenths
    assert sum(kept) / len(kept) == pytest.approx(0.5, abs=0.05)
    assert kept == sample()
