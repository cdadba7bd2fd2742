"""The simulation event loop.

The :class:`Simulator` owns a virtual clock and a priority queue of pending
events.  Time only advances when the queue is popped, so an arbitrary amount
of computation can occur "instantaneously" in simulated time.

Events scheduled at equal times fire in FIFO order of scheduling, which makes
simulations fully deterministic.

Two scheduling planes share the queue:

* :class:`~repro.des.events.Event` / :class:`~repro.des.events.Timeout` --
  the full synchronization primitives processes ``yield`` on;
* *scheduled calls* (:meth:`Simulator.call_in` / :meth:`Simulator.call_soon`)
  -- bare ``fn(*args)`` invocations at a future time.  They are the hot-path
  fast lane: one plain ``(time, seq, fn, args)`` heap tuple per occurrence,
  no Event, no callbacks list, no generator frame, not even a wrapper
  object.  The packet plane (link transmitters, propagation, traffic
  sources, periodic timers) runs on them.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import count
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.des.events import _PENDING, Event, Timeout
from repro.des.process import Process


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


#: Pending-entry count above which an "auto" simulator migrates from the
#: binary heap to the calendar queue.  Small runs (every paper-sized
#: scenario) stay on the heap, whose C implementation is unbeatable at
#: that size; the calendar queue's O(1) enqueue/dequeue only pays for
#: itself once the heap is tens of thousands of entries deep.
CALENDAR_THRESHOLD = 24_000


class CalendarQueue:
    """A bucketed (calendar) event queue, totally ordered by ``(time, seq)``.

    The classic O(1) priority queue for discrete-event simulation [Brown
    1988]: entries hash into time buckets of fixed ``width``; dequeueing
    scans forward from the current bucket, taking the earliest entry due
    within the bucket's current "year".  Bucket count and width adapt to
    the queue's population, keeping the expected occupancy of the scanned
    bucket near one entry.

    Entries are the simulator's plain ``(time, seq, ...)`` tuples, and
    ties are broken by the same unique ``seq`` the heap uses, so draining
    a calendar queue yields **exactly** the heap's order: scheduler choice
    can never change simulation behaviour, only its speed.

    Each bucket is itself a tiny binary heap, so the per-bucket earliest
    entry is ``bucket[0]`` and insert/remove run in C; the Python-level
    work per operation is just the forward scan over (mostly empty)
    buckets.

    Pushes are **staged**: :meth:`push` only appends to a plain list,
    and entries are hashed into their buckets lazily, in bulk, the next
    time the queue is consulted (:meth:`pop`, :meth:`peek_time`).  A
    pushed entry can only ever be popped *after* the operation that
    pushed it, so deferring the bucket insert to the next consultation
    is observationally identical to inserting immediately -- and it
    makes the enqueue side pure C (:attr:`stage` is the staging list's
    bound ``append``), which is what lets the event loop schedule
    millions of calls without a Python frame per push.
    """

    __slots__ = (
        "_buckets", "_nbuckets", "_width", "_size",
        "_cursor_base", "_expand_at", "_shrink_at", "resizes",
        "_staged", "stage",
    )

    #: Never shrink below this many buckets.
    MIN_BUCKETS = 16

    def __init__(self, entries: Optional[List[tuple]] = None,
                 width: float = 0.01) -> None:
        self._size = 0
        #: Bucket-array resizes (growth and shrink) over this queue's
        #: lifetime; a telemetry counter -- resizes are rare, so the
        #: increment never shows up in profiles.
        self.resizes = 0
        #: Entries pushed but not yet hashed into buckets.  The list
        #: object is permanent (cleared, never replaced), so the bound
        #: ``stage`` append below stays valid for the queue's lifetime.
        self._staged: List[tuple] = []
        #: C-speed push: ``stage(entry)`` is ``list.append``.
        self.stage = self._staged.append
        self._spread(self.MIN_BUCKETS, max(width, 1e-12), 0.0)
        if entries:
            self._staged.extend(entries)

    def __len__(self) -> int:
        return self._size + len(self._staged)

    def __repr__(self) -> str:
        return (
            f"<CalendarQueue size={self._size} buckets={self._nbuckets} "
            f"width={self._width:g}>"
        )

    # ------------------------------------------------------------------
    # Internal layout
    # ------------------------------------------------------------------
    # All positioning works in absolute *bucket numbers*: entry time t
    # lives in bucket number int(t / width), stored at index (number %
    # nbuckets).  The due-this-year test compares bucket numbers -- never
    # a float recomputation of a bucket boundary -- so hashing and
    # ordering can't disagree by a rounding ulp at bucket edges.

    def _spread(self, nbuckets: int, width: float, start: float) -> None:
        """Lay out ``nbuckets`` empty buckets of ``width`` from ``start``."""
        self._nbuckets = nbuckets
        self._width = width
        self._buckets: List[List[tuple]] = [[] for _ in range(nbuckets)]
        #: Absolute bucket number the dequeue scan resumes from; an
        #: invariant keeps it <= every queued entry's bucket number.
        self._cursor_base = int(start / width)
        self._expand_at = nbuckets * 2
        self._shrink_at = nbuckets // 2 if nbuckets > self.MIN_BUCKETS else 0

    def _resize(self, nbuckets: int) -> None:
        self.resizes += 1
        entries = [e for bucket in self._buckets for e in bucket]
        width = self._pick_width(entries)
        start = min(e[0] for e in entries) if entries else 0.0
        self._spread(nbuckets, width, start)
        width = self._width
        n = self._nbuckets
        buckets = self._buckets
        for entry in entries:
            buckets[int(entry[0] / width) % n].append(entry)
        for bucket in buckets:
            if len(bucket) > 1:
                heapq.heapify(bucket)

    def _pick_width(self, entries: List[tuple]) -> float:
        """A bucket width giving ~one due entry per scanned bucket.

        Uses the median gap between consecutive distinct event times of a
        bounded sample -- robust against the far-future outliers (periodic
        timers) that skew a plain mean.  Deterministic: the sample is the
        first entries in bucket order.
        """
        sample = sorted(e[0] for e in entries[:1024])
        gaps = [b - a for a, b in zip(sample, sample[1:]) if b > a]
        if not gaps:
            return self._width
        gaps.sort()
        median = gaps[len(gaps) // 2]
        return max(median * 2.0, 1e-12)

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def push(self, entry: tuple) -> None:
        """Insert ``entry``; O(1) (staged -- see the class docstring)."""
        self._staged.append(entry)

    def _drain(self) -> None:
        """Hash every staged entry into its bucket (bulk, heappush in C)."""
        staged = self._staged
        buckets = self._buckets
        n = self._nbuckets
        width = self._width
        cursor = self._cursor_base
        heappush = heapq.heappush
        for entry in staged:
            base = int(entry[0] / width)
            heappush(buckets[base % n], entry)
            if base < cursor:
                # Earlier than the current scan position: rewind so the
                # forward scan can never walk past it.
                cursor = base
        self._cursor_base = cursor
        self._size += len(staged)
        staged.clear()
        if self._size > self._expand_at:
            self._resize(self._nbuckets * 2)

    def pop(self) -> tuple:
        """Remove and return the least ``(time, seq)`` entry."""
        if self._staged:
            self._drain()
        if not self._size:
            raise IndexError("pop from an empty CalendarQueue")
        base = self._find()
        entry = heapq.heappop(self._buckets[base % self._nbuckets])
        self._size -= 1
        self._cursor_base = base
        if self._size < self._shrink_at:
            self._resize(max(self._nbuckets // 2, self.MIN_BUCKETS))
        return entry

    def peek_time(self) -> float:
        """Time of the least entry without removing it."""
        if self._staged:
            self._drain()
        if not self._size:
            return float("inf")
        base = self._find()
        return self._buckets[base % self._nbuckets][0][0]

    def _find(self) -> int:
        """Bucket number holding the least entry (as its heap head)."""
        buckets = self._buckets
        n = self._nbuckets
        width = self._width
        base = self._cursor_base
        index = base % n
        for _ in range(n):
            bucket = buckets[index]
            if bucket and int(bucket[0][0] / width) <= base:
                return base
            base += 1
            index += 1
            if index == n:
                index = 0
        # Rare: every entry lives beyond one full calendar year (a sparse
        # far-future population).  Take the global minimum of the bucket
        # heads directly and fast-forward the cursor to its bucket.
        best = None
        for bucket in buckets:
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        return int(best[0] / width)


class Simulator:
    """A discrete-event simulation kernel.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (default ``0.0``).
    scheduler:
        Event-queue backend: ``"heap"`` (binary heap, best for small
        runs), ``"calendar"`` (bucketed calendar queue, best for large
        networks), or ``"auto"`` (start on the heap, migrate to the
        calendar queue when the pending count first exceeds
        ``calendar_threshold``).  ``None`` uses
        :attr:`Simulator.DEFAULT_SCHEDULER`.  Both backends pop in the
        identical total ``(time, seq)`` order, so the choice can never
        change simulation results.
    calendar_threshold:
        Pending-entry count that triggers the auto migration.
    """

    #: Process-wide default backend; tests override it to force every
    #: simulation (including ones built deep inside scenario helpers)
    #: onto one scheduler.
    DEFAULT_SCHEDULER = "auto"

    def __init__(
        self,
        start_time: float = 0.0,
        scheduler: Optional[str] = None,
        calendar_threshold: int = CALENDAR_THRESHOLD,
    ) -> None:
        if scheduler is None:
            scheduler = self.DEFAULT_SCHEDULER
        if scheduler not in ("auto", "heap", "calendar"):
            raise ValueError(
                f"scheduler must be 'auto', 'heap' or 'calendar': "
                f"{scheduler!r}"
            )
        #: Current simulation time.  A plain attribute, not a property:
        #: the hot paths read it hundreds of thousands of times per run.
        #: Treat as read-only outside the kernel.
        self.now = float(start_time)
        # Queue entries are uniform (time, sequence, fn, args) tuples --
        # scheduled calls directly, Events via _fire_event.  The sequence
        # breaks ties deterministically in scheduling order and is unique,
        # so entry comparisons never reach the payload.
        self._queue: List[Tuple[float, int, Any]] = []
        self._sequence = count()
        # Bound iterator step: the tie-breaking sequence is drawn on
        # every push, so skip the global next() dispatch.
        self._next_seq = self._sequence.__next__
        self._active_process: Optional[Process] = None
        self._events_processed = 0
        #: Per-backend splits of events_processed (telemetry; updated in
        #: bulk once per run() call, never inside the event loop).
        self.heap_events_processed = 0
        self.calendar_events_processed = 0
        self._timers = None
        self.scheduler = scheduler
        self.calendar_threshold = calendar_threshold
        #: The calendar backend, or None while on the heap.
        self._calendar: Optional[CalendarQueue] = None
        # self._push(entry) is the single enqueue point for every plane;
        # a C-level partial keeps heap mode as fast as inline heappush.
        self._push = partial(heapq.heappush, self._queue)
        if scheduler == "calendar":
            self._switch_to_calendar()

    def _switch_to_calendar(self) -> None:
        """Migrate all pending entries onto the calendar queue."""
        self._calendar = CalendarQueue(self._queue)
        self._queue = []
        # The queue's staged push *is* list.append: enqueueing costs no
        # Python frame, in or out of the event loop.
        self._push = self._calendar.stage

    @property
    def active_scheduler(self) -> str:
        """The backend currently in use: ``"heap"`` or ``"calendar"``."""
        return "heap" if self._calendar is None else "calendar"

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def events_processed(self) -> int:
        """Queue entries processed so far (events + scheduled calls)."""
        return self._events_processed

    @property
    def timers(self):
        """The simulator's timer wheel (created on first use)."""
        if self._timers is None:
            from repro.des.timers import TimerWheel

            self._timers = TimerWheel(self)
        return self._timers

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._calendar is not None:
            return self._calendar.peek_time()
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    @property
    def pending(self) -> int:
        """Number of queued entries (events + scheduled calls)."""
        if self._calendar is not None:
            return len(self._calendar)
        return len(self._queue)

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self.now} pending={self.pending} "
            f"scheduler={self.active_scheduler}>"
        )

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """Create an untriggered :class:`Event` owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new cooperative process running ``generator``."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduled calls (the allocation-light fast lane)
    # ------------------------------------------------------------------
    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Invoke ``fn(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._push((self.now + delay, self._next_seq(), fn, args))

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Invoke ``fn(*args)`` at the current time, after pending events."""
        self._push((self.now, self._next_seq(), fn, args))

    def _schedule_call_at(
        self, when: float, fn: Callable[..., None], args: Tuple
    ) -> None:
        """Push a scheduled call at an absolute time (timer-wheel internal)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}; clock already at {self.now}"
            )
        self._push((when, self._next_seq(), fn, args))

    # ------------------------------------------------------------------
    # Scheduling (kernel-internal, used by Event/Timeout)
    # ------------------------------------------------------------------
    def _schedule_at(self, when: float, event: Event) -> None:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}; clock already at {self.now}"
            )
        self._push((when, self._next_seq(), self._fire_event, (event,)))

    def _enqueue_event(self, event: Event) -> None:
        """Schedule a just-triggered event's callbacks to run now."""
        self._push((self.now, self._next_seq(), self._fire_event, (event,)))

    @staticmethod
    def _fire_event(event: Event) -> None:
        """Run a due event's callbacks (the non-fast-lane heap payload)."""
        if event._value is _PENDING:
            # A Timeout reaching its firing time: install its value now.
            event._ok = True
            event._value = getattr(event, "_deferred_value", None)
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

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
        if self._calendar is not None:
            if not self._calendar:
                raise SimulationError("no events scheduled")
            entry = self._calendar.pop()
            self.calendar_events_processed += 1
        else:
            if not self._queue:
                raise SimulationError("no events scheduled")
            entry = heapq.heappop(self._queue)
            self.heap_events_processed += 1
        self.now = entry[0]
        self._events_processed += 1
        entry[2](*entry[3])

    def run(self, until: Optional[float] = None) -> None:
        """Run until ``until`` (inclusive of events at exactly ``until``),
        or until the event queue drains when ``until`` is ``None``.

        After a bounded run the clock rests at ``until`` even if the last
        event fired earlier, so successive bounded runs compose naturally.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}; clock already at {self.now}"
            )
        if self._calendar is None:
            self._run_heap(until)
        if self._calendar is not None:
            self._run_calendar(until)
        if until is not None:
            self.now = float(until)

    def _run_heap(self, until: Optional[float]) -> None:
        """The binary-heap event loop (also handles the auto migration).

        Inlined: identical semantics to step(), without the per-event
        method call and attribute traffic.  This loop is the single
        hottest few lines of the whole simulator.  Every 1024 events it
        checks whether an "auto" simulator has outgrown the heap; on
        migration it returns with entries still pending, and run()
        continues on the calendar loop.
        """
        queue = self._queue
        pop = heapq.heappop
        bounded = until is not None
        auto = self.scheduler == "auto"
        threshold = self.calendar_threshold
        processed = 0
        try:
            while queue:
                if bounded and queue[0][0] > until:
                    break
                if auto and processed & 1023 == 0 and len(queue) > threshold:
                    self._switch_to_calendar()
                    return
                entry = pop(queue)
                self.now = entry[0]
                processed += 1
                entry[2](*entry[3])
        finally:
            self._events_processed += processed
            self.heap_events_processed += processed

    def _run_calendar(self, until: Optional[float]) -> None:
        """The calendar-queue event loop: same semantics, bucketed pops.

        The pop side of the per-event queue traffic is inlined, because
        at millions of events per run the Python calls it saves are the
        difference between the calendar keeping pace with the C heap
        and losing to it: the common case of CalendarQueue.pop() (drain
        staged pushes, scan to the first due bucket, pop its heap head
        in C) runs inline; the rare far-future layout falls back to the
        method.  The push side needs no loop-local treatment at all --
        ``self._push`` is the queue's own staged C-speed append
        (:attr:`CalendarQueue.stage`), and a callback that raises simply
        leaves its pushes staged, where the next consultation drains
        them.
        """
        calendar = self._calendar
        pop = calendar.pop
        drain = calendar._drain
        staged = calendar._staged
        heappop = heapq.heappop
        bounded = until is not None
        processed = 0
        try:
            while calendar._size or staged:
                if staged:
                    drain()
                # Inline fast path: identical to CalendarQueue.pop().
                buckets = calendar._buckets
                n = calendar._nbuckets
                width = calendar._width
                base = calendar._cursor_base
                index = base % n
                for _ in range(n):
                    bucket = buckets[index]
                    if bucket and int(bucket[0][0] / width) <= base:
                        entry = heappop(bucket)
                        calendar._size -= 1
                        calendar._cursor_base = base
                        if calendar._size < calendar._shrink_at:
                            calendar._resize(
                                max(n // 2, calendar.MIN_BUCKETS)
                            )
                        break
                    base += 1
                    index += 1
                    if index == n:
                        index = 0
                else:
                    entry = pop()
                if bounded and entry[0] > until:
                    # Past the horizon: put it back (seq is preserved, so
                    # ordering is too) and stop.
                    calendar.push(entry)
                    break
                self.now = entry[0]
                processed += 1
                entry[2](*entry[3])
        finally:
            self._events_processed += processed
            self.calendar_events_processed += processed

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; return its value.

        Parameters
        ----------
        event:
            The event to wait for.
        limit:
            Optional time bound; a :class:`SimulationError` is raised if the
            event has not fired by then.
        """
        while not event.triggered:
            if not self.pending:
                raise SimulationError(f"queue drained before {event!r} fired")
            if limit is not None and self.peek() > limit:
                raise SimulationError(f"{event!r} did not fire by t={limit}")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
