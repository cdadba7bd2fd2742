"""Named, independently seeded random streams.

Large simulations need *decorrelated* randomness: the packet arrival stream
on one node must not shift when an unrelated node adds a traffic source,
otherwise A/B experiments (D-SPF vs HN-SPF on "the same" traffic) are not
comparable.  :class:`RandomStreams` derives one seed per name from a master
seed, so streams are reproducible and independent of creation order.

A generator is about 2.6 KB of Mersenne Twister state.  :meth:`stream`
keeps one per name for the whole run; a caller that draws from a name
once, or rarely, takes :meth:`seed` instead and builds a throwaway
``random.Random(seed)``, which yields the same sequence and is not cached.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of reproducible named random number generators."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def seed(self, name: str) -> int:
        """The integer seed of ``name``'s stream, derived afresh each call.

        ``random.Random(self.seed(name))`` yields the sequence
        :meth:`stream` would, and nothing is cached.
        """
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str) -> random.Random:
        """Return the generator for ``name``, creating it on first use.

        The same ``(master_seed, name)`` pair always yields an identical
        sequence, regardless of what other streams exist.  The generator
        stays cached for the life of this object.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = random.Random(self.seed(name))
        return rng

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given mean from ``name``."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw a uniform variate on ``[low, high)`` from ``name``."""
        return self.stream(name).uniform(low, high)

    def choice(self, name: str, sequence):
        """Pick a uniformly random element of ``sequence`` from ``name``."""
        return self.stream(name).choice(sequence)
