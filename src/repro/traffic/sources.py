"""Poisson packet sources.

Each (src, dst) demand becomes an independent Poisson process of packets
with exponentially distributed sizes (mean 600 bits, the network-wide
average the paper's M/M/1 model assumes).  Every source draws from its own
named random stream so that adding or removing one flow never perturbs the
arrival pattern of another -- essential for clean A/B metric comparisons.

Sources run on **arrival trains**: instead of drawing one inter-arrival
gap and one size per packet (two generator calls and a gap-relative
``call_in`` each), a source pre-draws a block of ``TRAIN_LENGTH``
(gap, size) variate pairs, converts the gaps to absolute arrival times
by running addition (``t_i = t_{i-1} + gap_i`` -- the identical float
arithmetic the per-packet ``call_in`` chain performed), and then chains
through the block one absolute-time schedule at a time.  The per-stream
draw order (gap, size, gap, size, ...) and the scheduled timestamps are
exactly those of the per-packet formulation, so same-seed runs are
bit-identical; what changes is the constant factor -- the generator
method is resolved once per train, and the block is drawn in one tight
loop instead of being interleaved with the event loop.

A train is one flat ``array("d")`` of interleaved ``when, size``
numbers, not a list of tuples: a source exists per node pair, so on the
57-node ARPANET 3 192 trains are alive at once, and a boxed pair (a
tuple, two float objects and a list slot) costs about seven times the
16 bytes of its two binary64 values, which round-trip bit-exactly.

A source owns no generator until it has used one twice.  A Mersenne
Twister is about 2.6 KB, and most flows of a large matrix are slow
enough that one train lasts them minutes, so the generator's lifecycle
is:

1. **Constructed:** the source holds the :class:`RandomStreams`, nothing
   drawn.  The seed is not derived here: thousands of SHA-256 digests
   would move into set-up.
2. **First train** (``_start``, inside the simulation): the source
   derives its int seed with :meth:`RandomStreams.seed`, keeps it, drops
   the streams, and draws the train from a throwaway
   ``random.Random(seed)``.  Nothing is cached in the streams either.
3. **Second train:** the source rebuilds ``random.Random(seed)``,
   advances it past the first train's draws with one ``getrandbits``
   call, and keeps it for every later refill.  Rebuilding at every
   refill would redo O(trains drawn) work each time; a flow fast enough
   to need a second train is fast enough to earn its generator.

Because a flow's stream is a pure function of ``(master_seed,
"flow-src-dst")``, every draw -- and so every arrival -- is the one a
resident generator would have made.
"""

from __future__ import annotations

from array import array
from random import Random
from typing import Callable, List, Optional

from repro.des import RandomStreams, Simulator
from repro.traffic.matrix import TrafficMatrix
from repro.units import AVERAGE_PACKET_BITS

#: Packets smaller than this are padded: every packet carries a header.
MIN_PACKET_BITS = 96.0

#: Variate pairs pre-drawn per train.  Large enough to amortize the
#: refill, small enough that an idle flow does not hold a big block.
TRAIN_LENGTH = 64

#: Generator bits one train consumes: ``2 * TRAIN_LENGTH`` exponential
#: variates, each one ``random()`` call built from two 32-bit words.
_TRAIN_BITS = TRAIN_LENGTH * 4 * 32


class PoissonSource:
    """One node-to-node packet flow.

    Slotted: one of these exists per node pair of the traffic matrix.

    Parameters
    ----------
    sim:
        The simulator to run in.
    streams:
        Named random streams; the flow's stream is ``flow-<src>-<dst>``.
        Held only until the first train is drawn.
    src, dst:
        Endpoint node ids.
    rate_bps:
        Offered load of this flow.
    emit:
        Callback invoked with ``(src, dst, size_bits)`` for each packet;
        the network simulation injects the packet at the source PSN.

    Sizes are exponential with mean ``AVERAGE_PACKET_BITS``.
    """

    __slots__ = (
        "sim", "src", "dst", "rate_bps", "emit", "packets_per_s", "_mean_gap", "_streams", "_seed", "_rng",
        "_train", "_fire_b",
    )

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        src: int,
        dst: int,
        rate_bps: float,
        emit: Callable[[int, int, float], None],
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.emit = emit
        self.packets_per_s = rate_bps / AVERAGE_PACKET_BITS
        self._mean_gap = 1.0 / self.packets_per_s
        self._streams: Optional[RandomStreams] = streams
        #: The flow's stream seed, from the first train on.
        self._seed = 0
        #: The flow's generator, from the second train on.
        self._rng: Optional[Random] = None
        #: Pending arrivals as interleaved ``when, size`` numbers,
        #: reversed so ``pop()`` yields the next arrival's time and then
        #: its size, and ``_train[-1]`` is the next arrival time.
        self._train = array("d")
        self._fire_b = self._fire
        # The seed is derived inside the simulation (not at
        # construction), so it costs set-up nothing.
        sim.call_soon(self._start)

    def _refill(self, base_s: float, expovariate) -> None:
        """Draw the next train into the (empty) ``_train`` array.

        The draws replay the per-packet sequence verbatim: one gap with
        mean ``1/packets_per_s`` then one size with mean
        ``AVERAGE_PACKET_BITS``, per packet, from this flow's stream --
        including the exact ``1.0 / mean`` lambda arithmetic
        ``RandomStreams.exponential`` performs.  ``expovariate`` is the
        bound method of the generator at the stream's current position.
        """
        gap_lambd = 1.0 / self._mean_gap
        size_lambd = 1.0 / AVERAGE_PACKET_BITS
        train = self._train
        append = train.append
        when = base_s
        for _ in range(TRAIN_LENGTH):
            when = when + expovariate(gap_lambd)
            append(when)
            append(max(expovariate(size_lambd), MIN_PACKET_BITS))
        train.reverse()

    def _start(self) -> None:
        seed = self._seed = self._streams.seed(f"flow-{self.src}-{self.dst}")
        self._streams = None
        self._refill(self.sim.now, Random(seed).expovariate)
        self.sim._schedule_call_at(self._train[-1], self._fire_b, ())

    def _fire(self) -> None:
        train = self._train
        when = train.pop()
        self.emit(self.src, self.dst, train.pop())
        if not train:
            rng = self._rng
            if rng is None:
                # Second train: rebuild the stream past the first one.
                rng = self._rng = Random(self._seed)
                rng.getrandbits(_TRAIN_BITS)
            self._refill(when, rng.expovariate)
        self.sim._schedule_call_at(train[-1], self._fire_b, ())


def start_sources(
    sim: Simulator,
    streams: RandomStreams,
    matrix: TrafficMatrix,
    emit: Callable[[int, int, float], None],
) -> List[PoissonSource]:
    """Start one :class:`PoissonSource` per demand in ``matrix``."""
    return [
        PoissonSource(sim, streams, src, dst, bps, emit)
        for (src, dst), bps in matrix
    ]
