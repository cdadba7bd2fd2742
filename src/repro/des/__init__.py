"""Discrete-event simulation kernel.

A small, dependency-free, generator-based discrete-event simulation engine
in the style of SimPy (which is not available in this environment).  It
provides everything the packet-level network simulator needs:

* :class:`~repro.des.engine.Simulator` -- the event loop with a virtual clock,
* :class:`~repro.des.events.Event` -- one-shot events with callbacks,
* :class:`~repro.des.events.Timeout` -- events that fire after a delay,
* :class:`~repro.des.process.Process` -- generator-based cooperative
  processes that ``yield`` events,
* :class:`~repro.des.resources.Store` -- FIFO queues with optional capacity,
* :class:`~repro.des.random_streams.RandomStreams` -- named, independently
  seeded random streams for reproducible experiments.

Example
-------
>>> from repro.des import Simulator
>>> sim = Simulator()
>>> log = []
>>> def ticker(sim, period):
...     while True:
...         yield sim.timeout(period)
...         log.append(sim.now)
>>> _ = sim.process(ticker(sim, 10.0))
>>> sim.run(until=35.0)
>>> log
[10.0, 20.0, 30.0]
"""

from repro.des.engine import Simulator, SimulationError
from repro.des.events import AllOf, AnyOf, Event, Timeout
from repro.des.process import Interrupt, Process
from repro.des.random_streams import RandomStreams
from repro.des.resources import Store, StoreFull
from repro.des.timers import PeriodicTimer, TimerWheel

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "PeriodicTimer",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Store",
    "StoreFull",
    "TimerWheel",
    "Timeout",
]
