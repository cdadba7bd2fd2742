"""Discrete-event simulation kernel.

A small, dependency-free discrete-event engine built on scheduled calls.
It provides everything the packet-level network simulator needs:

* :class:`~repro.des.engine.Simulator` -- the event loop with a virtual
  clock; work is scheduled with ``call_in`` / ``call_soon``,
* :class:`~repro.des.timers.TimerWheel` -- periodic callbacks
  (``sim.timers.every``), each a :class:`~repro.des.timers.PeriodicTimer`,
* :class:`~repro.des.random_streams.RandomStreams` -- named, independently
  seeded random streams for reproducible experiments.

Example
-------
>>> from repro.des import Simulator
>>> sim = Simulator()
>>> log = []
>>> _ = sim.timers.every(10.0, lambda: log.append(sim.now))
>>> sim.run(until=35.0)
>>> log
[10.0, 20.0, 30.0]
"""

from repro.des.engine import Simulator, SimulationError
from repro.des.random_streams import RandomStreams
from repro.des.timers import PeriodicTimer, TimerWheel

__all__ = [
    "PeriodicTimer",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "TimerWheel",
]
