"""The two-lane scheduler against a single-heap reference.

:class:`~repro.des.Simulator` keeps its queue in two lanes (near, which
``call_in`` and ``call_soon`` fill, and recurring) and promises the
firing order of *one* heap keyed by ``(time, seq)``.
:class:`ReferenceKernel` below is that one heap, in twenty lines; a
Hypothesis-drawn program of scheduling calls, callbacks that schedule
further calls through every entry point, timers, sliced ``run``,
``step``, ``peek`` and ``pending`` must read the same on both.
"""

import heapq
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator, TimerWheel


class ReferenceKernel:
    """The kernel's whole ordering contract: one ``heapq``."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = count()
        self.timers = TimerWheel(self)

    def _schedule_call_at(self, when, fn, args):
        heapq.heappush(self._heap, (when, next(self._seq), fn, args))

    def call_in(self, delay, fn, *args):
        self._schedule_call_at(self.now + delay, fn, args)

    def call_soon(self, fn, *args):
        self._schedule_call_at(self.now, fn, args)

    def peek(self):
        return self._heap[0][0] if self._heap else float("inf")

    @property
    def pending(self):
        return len(self._heap)

    def step(self):
        self.now, _seq, fn, args = heapq.heappop(self._heap)
        fn(*args)

    def run(self, until):
        while self._heap and self._heap[0][0] <= until:
            self.step()
        self.now = until


# Dyadic delays add exactly, so equal-time ties between lanes are
# common; the free floats cover times that only nearly coincide.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0),
)
LANES = st.sampled_from(["call_in", "call_soon", "call_at"])

#: A scheduled call: (lane, delay, calls it schedules when it fires).
CALLS = st.recursive(
    st.tuples(LANES, DELAYS, st.just(())),
    lambda calls: st.tuples(
        LANES, DELAYS, st.lists(calls, max_size=3).map(tuple)
    ),
    max_leaves=8,
)

OPERATIONS = st.one_of(
    st.tuples(st.just("schedule"), CALLS),
    st.tuples(
        st.just("every"),
        st.sampled_from([0.25, 0.3, 0.5, 1.0]),
        st.one_of(st.none(), DELAYS),
        st.lists(CALLS, max_size=2).map(tuple),
    ),
    st.tuples(st.just("run"), DELAYS),
    st.tuples(st.just("step")),
)


def execute(kernel, program):
    """Run ``program`` on ``kernel``; return everything observable.

    Every firing logs its label, the clock, and ``pending`` / ``peek()``
    as seen from inside the callback (mid-``run``); every top-level
    operation logs them from outside.
    """
    log = []

    def observe(label):
        log.append((label, kernel.now, kernel.pending, kernel.peek()))

    def fire(label, calls):
        observe(label)
        for index, call in enumerate(calls):
            schedule(call, label + (index,))

    def schedule(call, label):
        lane, delay, calls = call
        if lane == "call_in":
            kernel.call_in(delay, fire, label, calls)
        elif lane == "call_soon":
            kernel.call_soon(fire, label, calls)
        else:
            kernel._schedule_call_at(
                kernel.now + delay, fire, (label, calls)
            )

    for number, operation in enumerate(program):
        kind = operation[0]
        if kind == "schedule":
            schedule(operation[1], (number,))
        elif kind == "every":
            _kind, interval, first, calls = operation
            kernel.timers.every(
                interval,
                lambda label=(number,), calls=calls: fire(label, calls),
                first_fire_s=None if first is None else kernel.now + first,
            )
        elif kind == "run":
            kernel.run(until=kernel.now + operation[1])
        elif kernel.pending:
            kernel.step()
        observe(f"after operation {number}")
    kernel.run(until=kernel.now + 3.0)
    observe("end")
    return log


@settings(max_examples=300, deadline=None)
@given(program=st.lists(OPERATIONS, max_size=12))
def test_lanes_fire_in_single_heap_order(program):
    sim = Simulator()
    fired = execute(sim, program)
    assert fired == execute(ReferenceKernel(), program)
    firings = [entry for entry in fired if isinstance(entry[0], tuple)]
    assert sim.events_processed == len(firings)


def test_older_heap_entry_precedes_younger_call_soon_at_the_same_instant():
    sim = Simulator()
    log = []

    def first():
        log.append("first")
        sim.call_soon(log.append, "soon")

    sim.call_in(1.0, first)
    sim.call_in(1.0, log.append, "older")  # pushed before "soon" exists
    sim.run()
    assert log == ["first", "older", "soon"]


def test_recurring_and_near_entries_at_one_time_fire_in_push_order():
    for recurring_first in (True, False):
        sim = Simulator()
        log = []
        if recurring_first:
            sim._schedule_call_at(1.0, log.append, ("recurring",))
        sim.call_in(1.0, log.append, "near")
        if not recurring_first:
            sim._schedule_call_at(1.0, log.append, ("recurring",))
        assert sim.pending == 2 and sim.peek() == 1.0
        sim.run()
        expected = ["recurring", "near"]
        assert log == (expected if recurring_first else expected[::-1])
