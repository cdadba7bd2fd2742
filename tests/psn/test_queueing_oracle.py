"""One isolated link against M/M/1 and M/M/1/K queueing theory.

A 56 kb/s line with zero propagation, fed Poisson arrivals of
exponentially sized packets (mean 600 bits, the paper's average packet),
is an M/M/1 queue.  Its mean time in system is ``1 / (mu - lambda)``;
with a finite buffer of ``B`` packets it is M/M/1/K with ``K = B + 1``
(the buffer plus the packet on the wire), whose loss probability is
``(1 - rho) rho**K / (1 - rho**(K + 1))``.

The PSN measures exactly this delay (plus ``PROCESSING_DELAY_S``) and
HN-SPF inverts it through :mod:`repro.metrics.queueing` to infer the
utilization, so the checks go both ways: theory predicts the sampled
delay, and the sampled delay recovers the offered load.

Every tolerance is ``Z`` standard errors of the run, so it shrinks as
the run grows.  For the mean delay the error is the M/M/1 asymptotic
one, ``sqrt(2 (1 + rho) / n) / (1 - rho)`` relative over ``n`` packets
(Whitt, "Planning queueing simulations", 1989); at 100 000 packets that
is 0.5 / 1.1 / 3.0 / 6.2 % at rho = 0.1 / 0.5 / 0.8 / 0.9, and 40 seeds
of this very test scattered a little less (0.4 / 0.9 / 2.6 / 6.0 %).  A
heavily loaded queue's delay is ruled by a few long busy periods, and
one run sees only so many.  The offered work over a fixed horizon has
relative error ``sqrt(2 / n)``.  Losses cluster in those busy periods
too and have no such closed form: their error comes from batch means,
the spread of the loss rate over ``BATCHES`` consecutive stretches of
the run.
"""

import math
import random
from functools import lru_cache
from statistics import fmean, stdev

import pytest

from repro.des import Simulator
from repro.metrics.queueing import delay_to_utilization
from repro.psn import LinkTransmitter, Packet, PacketKind
from repro.psn.interfaces import PROCESSING_DELAY_S
from repro.topology import Network, line_type

RATE_BPS = 56_000.0
MEAN_BITS = 600.0
MU = RATE_BPS / MEAN_BITS
PACKETS = 100_000
BATCHES = 20
Z = 4.0
RHOS = [0.1, 0.5, 0.8, 0.9]
UNBOUNDED = 10 ** 9
#: Utilization is read like a PSN reads it: once per measurement interval.
READ_INTERVAL_S = 10.0


@lru_cache(maxsize=None)
def simulate(rho, buffer_packets, seed=1):
    """Run one Poisson-fed link for about ``PACKETS`` arrivals.

    Returns ``(delay, loss, loss_error, utilization)``: the mean delay
    sample minus processing, the fraction of offered packets dropped and
    its standard error by batch means, and the mean of the utilization
    reads.
    """
    network = Network()
    a = network.add_node().node_id
    b = network.add_node().node_id
    link, _ = network.add_circuit(a, b, line_type("56K-T"), 0.0)
    assert link.bandwidth_bps == RATE_BPS
    sim = Simulator()
    lost = []
    tx = LinkTransmitter(
        sim, link, lambda packet, _link: None,
        buffer_packets=buffer_packets,
        on_drop=lambda packet, _link: lost.__setitem__(-1, 1),
    )
    delays = []
    tx.on_delay_sample = delays.append
    lam = rho * MU
    horizon = READ_INTERVAL_S * math.ceil(PACKETS / lam / READ_INTERVAL_S)
    rng = random.Random(seed)

    def arrive():
        lost.append(0)
        tx.send(Packet(
            kind=PacketKind.DATA, src=a, dst=b,
            size_bits=rng.expovariate(1.0 / MEAN_BITS), created_s=sim.now,
        ))
        gap = rng.expovariate(lam)
        if sim.now + gap < horizon:
            sim.call_in(gap, arrive)

    utilizations = []

    def read():
        utilizations.append(tx.take_utilization(READ_INTERVAL_S))
        if sim.now < horizon:
            sim.call_in(READ_INTERVAL_S, read)

    sim.call_in(rng.expovariate(lam), arrive)
    sim.call_in(READ_INTERVAL_S, read)
    sim.run()
    size = len(lost) // BATCHES
    batches = [fmean(lost[i * size:(i + 1) * size]) for i in range(BATCHES)]
    return (
        fmean(delays) - PROCESSING_DELAY_S,
        fmean(lost),
        stdev(batches) / math.sqrt(BATCHES),
        fmean(utilizations),
    )


def delay_tolerance(rho):
    """``Z`` standard errors of the mean delay, relative."""
    return Z * math.sqrt(2 * (1 + rho) / PACKETS) / (1 - rho)


@pytest.mark.parametrize("rho", RHOS)
def test_mean_delay_matches_mm1(rho):
    delay, loss, _, _ = simulate(rho, UNBOUNDED)
    assert loss == 0
    assert delay == pytest.approx(
        1.0 / (MU - rho * MU), rel=delay_tolerance(rho)
    )


@pytest.mark.parametrize("rho", RHOS)
def test_delay_inverts_to_offered_utilization(rho):
    """The direction the PSN uses the model in: the delay's tolerance
    band, mapped through ``delay_to_utilization``, must hold rho."""
    delay, _, _, _ = simulate(rho, UNBOUNDED)

    def inferred(delay):
        return delay_to_utilization(delay, RATE_BPS, 0.0, MEAN_BITS)

    band = delay_tolerance(rho)
    assert inferred(delay / (1 + band)) <= rho <= inferred(delay / (1 - band))


@pytest.mark.parametrize("rho", RHOS)
def test_take_utilization_matches_offered_load(rho):
    _, _, _, utilization = simulate(rho, UNBOUNDED)
    assert utilization == pytest.approx(rho, rel=Z * math.sqrt(2 / PACKETS))


@pytest.mark.parametrize("buffer_packets", [2, 20])
def test_loss_matches_mm1k(buffer_packets):
    """At the default buffer (20) the run cannot tell K = 21 from
    K = 20 (a 12 % difference); at 2 it can (K = 3: 0.212, K = 2:
    0.299)."""
    rho = 0.9
    k = buffer_packets + 1  # the buffer plus the packet on the wire
    expected = (1 - rho) * rho ** k / (1 - rho ** (k + 1))
    _, loss, error, _ = simulate(rho, buffer_packets)
    assert loss == pytest.approx(expected, abs=Z * error)
