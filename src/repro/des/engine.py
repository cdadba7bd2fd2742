"""The simulation event loop.

The :class:`Simulator` owns a virtual clock and the queue of pending
entries.  Time only advances when an entry is taken off the queue, so an
arbitrary amount of computation can occur "instantaneously" in simulated
time.

Every entry is a plain ``(time, seq, fn, args)`` tuple, a *scheduled
call* (:meth:`Simulator.call_in` / :meth:`Simulator.call_soon`) -- no
callbacks list, no generator frame, not even a wrapper object.  ``seq``
is drawn from one counter at push time and entries fire in ``(time,
seq)`` order, so entries at equal times fire in the order they were
scheduled and simulations are fully deterministic.

One scheduler, two lanes
------------------------
The queue is kept in two lanes.  *Which scheduling call was made* picks
the lane; nothing selects or tunes it:

* **near** -- :meth:`Simulator.call_in` and :meth:`Simulator.call_soon`
  (a ``call_in`` with no delay): transient entries at most a few
  milliseconds out, in a binary heap.  Nearly all are packet arrivals,
  and a link holds at most one (:mod:`repro.psn.interfaces`).
* **recurring** -- :meth:`Simulator._schedule_call_at`: the timer
  wheel's ticks and the traffic sources' next arrivals, in a second
  binary heap.  The population is fixed -- one entry per flow, two per
  PSN -- and each waits orders of magnitude longer than a near entry.

The loop fires the lesser ``(time, seq)`` of the two heads, which is
exactly the order a single heap of the same entries pops in: no tie can
resolve differently (``tests/des/test_lane_order.py`` holds the kernel
to a single-``heapq`` reference).  What the lanes buy is heap depth.
On the 57-node ``aug87`` workload in steady state the queue peaks at
135 near entries against 3 306 recurring ones: in one heap every push
of a near entry would sift past a dozen levels of things that are not
about to happen (measurements: docs/performance.md, "Scheduler").
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

#: A queue entry; ``seq`` is unique, so comparisons never reach ``fn``.
Entry = Tuple[float, int, Callable[..., None], Tuple]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Simulator:
    """A discrete-event simulation kernel.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (default ``0.0``).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulation time.  A plain attribute, not a property:
        #: the hot paths read it hundreds of thousands of times per run.
        #: Treat as read-only outside the kernel.
        self.now = float(start_time)
        # The two lanes (module docstring).
        self._queue: List[Entry] = []
        self._recurring: List[Entry] = []
        self._sequence = count()
        # Bound iterator step: the tie-breaking sequence is drawn on
        # every push, so skip the global next() dispatch.
        self._next_seq = self._sequence.__next__
        # C-level partials keep a push as fast as an inline heappush.
        self._push = partial(heapq.heappush, self._queue)
        self._push_recurring = partial(heapq.heappush, self._recurring)
        self._events_processed = 0
        self._timers = None

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Queue entries processed so far."""
        return self._events_processed

    @property
    def timers(self):
        """The simulator's timer wheel (created on first use)."""
        if self._timers is None:
            from repro.des.timers import TimerWheel

            self._timers = TimerWheel(self)
        return self._timers

    def _head_lane(self):
        """The lane holding the least ``(time, seq)`` entry, or ``None``
        if both are empty (:meth:`run` inlines the same test)."""
        queue, recurring = self._queue, self._recurring
        if queue and not (recurring and recurring[0] < queue[0]):
            return queue
        return recurring or None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        lane = self._head_lane()
        return float("inf") if lane is None else lane[0][0]

    @property
    def pending(self) -> int:
        """Number of queued entries."""
        return len(self._queue) + len(self._recurring)

    def __repr__(self) -> str:
        return f"<Simulator t={self.now} pending={self.pending}>"

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Invoke ``fn(*args)`` after ``delay`` time units."""
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"invalid delay {delay!r}")
        self._push((self.now + delay, self._next_seq(), fn, args))

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Invoke ``fn(*args)`` at the current time, after pending events."""
        self._push((self.now, self._next_seq(), fn, args))

    def _schedule_call_at(
        self, when: float, fn: Callable[..., None], args: Tuple
    ) -> None:
        """Push a recurring call at an absolute time (timer wheel and
        traffic sources: entries that re-push themselves for good)."""
        if not when >= self.now:  # in the past or NaN
            raise SimulationError(
                f"cannot schedule at {when}; clock already at {self.now}"
            )
        self._push_recurring((when, self._next_seq(), fn, args))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        lane = self._head_lane()
        if lane is None:
            raise SimulationError("no events scheduled")
        entry = heapq.heappop(lane)
        self.now = entry[0]
        self._events_processed += 1
        args = entry[3]
        if args:
            entry[2](*args)
        else:
            entry[2]()

    def run(self, until: Optional[float] = None) -> None:
        """Run until ``until`` (inclusive of events at exactly ``until``),
        or until the event queue drains when ``until`` is ``None``.

        After a bounded run the clock rests at ``until`` even if the last
        event fired earlier, so successive bounded runs compose naturally.
        """
        if until is None:
            horizon = float("inf")
        elif not until >= self.now:  # in the past or NaN
            raise SimulationError(
                f"cannot run until {until}; clock already at {self.now}"
            )
        else:
            horizon = until
        # Inlined: identical semantics to step(), without the per-event
        # method calls and attribute traffic.  This loop is the single
        # hottest few lines of the whole simulator.
        queue = self._queue
        recurring = self._recurring
        pop = heapq.heappop
        processed = 0
        try:
            while True:
                if queue and not (recurring and recurring[0] < queue[0]):
                    lane = queue
                else:
                    lane = recurring
                if lane and lane[0][0] <= horizon:
                    entry = pop(lane)
                else:
                    break
                self.now = entry[0]
                processed += 1
                # Link arrivals, source fires and timer ticks carry no
                # arguments: a plain call skips building the star-call.
                args = entry[3]
                if args:
                    entry[2](*args)
                else:
                    entry[2]()
        finally:
            self._events_processed += processed
        if until is not None:
            self.now = float(until)
