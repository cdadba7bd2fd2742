"""Unit tests for Poisson packet sources."""

import tracemalloc

import pytest

from repro.des import RandomStreams, Simulator
from repro.sim import ScenarioConfig, build_scenario
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
                  emit=collect(emissions))
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


def test_slow_flow_rebuilds_its_generator_once_and_replays_exactly():
    """A flow owns no generator during its first train, rebuilds one
    from its seed for the second (advanced past the first train's
    draws), and keeps that one: every arrival is still the per-packet
    draw, bit for bit."""
    sim = Simulator()
    streams = RandomStreams(13)
    emitted = []
    held = []

    def emit(s, d, b):
        emitted.append((sim.now, b))
        held.append(source._rng)

    # 0.1 packets/s: each train of 64 lasts about ten minutes.
    source = PoissonSource(sim, streams, 2, 5, rate_bps=60.0, emit=emit)
    sim.run(until=4_000.0)
    assert len(emitted) >= 4 * TRAIN_LENGTH
    # The second train starts long after the first.
    assert emitted[TRAIN_LENGTH][0] - emitted[0][0] > 300.0
    reference = reference_arrivals(
        13, 2, 5, 60.0, 600.0, len(emitted) + 1
    )
    assert emitted == reference[:-1]
    assert reference[-1][0] > 4_000.0
    # Nothing resident during train 1 (each emit runs before that
    # train's refill), one generator from train 2 on, never rebuilt.
    assert held[:TRAIN_LENGTH] == [None] * TRAIN_LENGTH
    assert held[TRAIN_LENGTH] is not None
    assert all(rng is held[TRAIN_LENGTH] for rng in held[TRAIN_LENGTH:])
    assert source._streams is None
    assert streams._streams == {}


def test_started_sources_stay_small():
    """Per-flow state scales with the square of the node count: 1 000
    started sources stay under 2 000 bytes each.  A started source holds
    its first train (64 pairs of doubles), its int seed and no
    generator; a resident Mersenne Twister alone costs ~2.6 KB more."""
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
    assert grown / 1_000 < 2_000


def test_aug87_caches_no_flow_or_psn_stream():
    """Flows and PSNs draw from throwaway generators: after the first
    second of ``aug87`` (every source started) the run's streams hold
    none of their names."""
    simulation = build_scenario(
        "aug87", ScenarioConfig(duration_s=1.0, warmup_s=0.0, seed=3)
    )
    simulation.run()
    cached = list(simulation.streams._streams)
    assert not [n for n in cached if n.startswith(("flow-", "psn-"))]
