"""Unit tests for Poisson packet sources."""

import tracemalloc

import pytest

from repro.des import RandomStreams, Simulator
from repro.traffic import PoissonSource, TrafficMatrix, start_sources
from repro.traffic.sources import MIN_PACKET_BITS, TRAIN_LENGTH


def collect(emissions):
    def emit(src, dst, size_bits):
        emissions.append((src, dst, size_bits))
    return emit


def test_rate_approximately_honored():
    sim = Simulator()
    streams = RandomStreams(1)
    emissions = []
    PoissonSource(sim, streams, 0, 1, rate_bps=60_000.0,
                  emit=collect(emissions))
    sim.run(until=200.0)
    bits = sum(size for _s, _d, size in emissions)
    assert bits / 200.0 == pytest.approx(60_000.0, rel=0.1)


def test_packet_rate_matches_mean_size():
    sim = Simulator()
    streams = RandomStreams(2)
    emissions = []
    PoissonSource(sim, streams, 0, 1, rate_bps=6_000.0,
                  emit=collect(emissions), mean_packet_bits=600.0)
    sim.run(until=300.0)
    # 6000 bps / 600 bits = 10 packets/s.
    assert len(emissions) / 300.0 == pytest.approx(10.0, rel=0.1)


def test_packets_have_minimum_size():
    sim = Simulator()
    streams = RandomStreams(3)
    emissions = []
    PoissonSource(sim, streams, 0, 1, rate_bps=60_000.0,
                  emit=collect(emissions))
    sim.run(until=50.0)
    assert all(size >= MIN_PACKET_BITS for _s, _d, size in emissions)


def test_rejects_bad_parameters():
    sim = Simulator()
    streams = RandomStreams(0)
    with pytest.raises(ValueError):
        PoissonSource(sim, streams, 0, 1, rate_bps=0.0, emit=lambda *a: None)
    with pytest.raises(ValueError):
        PoissonSource(sim, streams, 0, 1, rate_bps=10.0,
                      emit=lambda *a: None, mean_packet_bits=0.0)


def test_reproducible_across_runs():
    def run_once():
        sim = Simulator()
        streams = RandomStreams(42)
        emissions = []
        PoissonSource(sim, streams, 0, 1, rate_bps=10_000.0,
                      emit=collect(emissions))
        sim.run(until=30.0)
        return emissions

    assert run_once() == run_once()


def test_flows_are_decorrelated():
    """Adding a second flow must not change the first flow's arrivals."""
    def arrivals(with_second_flow):
        sim = Simulator()
        streams = RandomStreams(7)
        first = []
        PoissonSource(
            sim, streams, 0, 1, rate_bps=10_000.0,
            emit=lambda s, d, b: first.append((sim.now, b)),
        )
        if with_second_flow:
            PoissonSource(sim, streams, 2, 3, rate_bps=10_000.0,
                          emit=lambda *a: None)
        sim.run(until=30.0)
        return first

    assert arrivals(False) == arrivals(True)


def test_start_sources_covers_matrix():
    sim = Simulator()
    streams = RandomStreams(0)
    matrix = TrafficMatrix({(0, 1): 5_000.0, (2, 0): 7_000.0})
    sources = start_sources(sim, streams, matrix, emit=lambda *a: None)
    assert {(s.src, s.dst) for s in sources} == {(0, 1), (2, 0)}


def reference_arrivals(seed, src, dst, rate_bps, mean_packet_bits, count):
    """The per-packet formulation the trains must replay: from the flow's
    own stream, one gap then one size per packet, arrival times by
    running addition from t = 0."""
    rng = RandomStreams(seed).stream(f"flow-{src}-{dst}")
    gap_lambd = 1.0 / (1.0 / (rate_bps / mean_packet_bits))
    size_lambd = 1.0 / mean_packet_bits
    arrivals = []
    when = 0.0
    for _ in range(count):
        when = when + rng.expovariate(gap_lambd)
        size = max(rng.expovariate(size_lambd), MIN_PACKET_BITS)
        arrivals.append((when, size))
    return arrivals


def test_trains_replay_the_per_packet_draws_exactly():
    sim = Simulator()
    emitted = []
    PoissonSource(
        sim, RandomStreams(11), 4, 9, rate_bps=60_000.0,
        emit=lambda s, d, b: emitted.append((sim.now, b)),
        mean_packet_bits=600.0,
    )
    sim.run(until=3.0)
    assert len(emitted) >= max(200, 3 * TRAIN_LENGTH)
    reference = reference_arrivals(
        11, 4, 9, 60_000.0, 600.0, len(emitted) + 1
    )
    # Bit-for-bit: times and sizes, and nothing due before the horizon
    # was left out.
    assert emitted == reference[:-1]
    assert reference[-1][0] > 3.0


def test_started_sources_stay_small():
    """Per-flow state scales with the square of the node count: 1 000
    started sources (their streams included) stay under 6 000 bytes
    each; a train of boxed (when, size) tuples alone costs ~6 KB more."""
    sim = Simulator()
    streams = RandomStreams(3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sources = [
            PoissonSource(sim, streams, i, i + 1, rate_bps=1_000.0,
                          emit=lambda *a: None)
            for i in range(1_000)
        ]
        sim.run(until=0.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sources) == 1_000
    assert grown / 1_000 < 6_000
