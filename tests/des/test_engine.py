"""Unit tests for the simulation event loop."""

import pytest

from repro.des import Simulator, SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=42.0)
    assert sim.now == 42.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_in(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_run_until_bounds_execution():
    sim = Simulator()
    fired = []
    for delay in (1.0, 2.0, 3.0):
        sim.call_in(delay, fired.append, delay)
    sim.run(until=2.0)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_sets_clock_even_without_events():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.call_in(1.0, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_step_with_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.call_in(7.0, lambda: None)
    assert sim.peek() == 7.0


def test_scheduling_into_the_past_raises():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim._schedule_call_at(1.0, lambda: None, ())


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
def test_invalid_times_rejected_at_every_entry_point(bad):
    """A NaN passes ``x < 0`` and ``x < now``; in the queue it breaks the
    heap invariant silently and ends with ``sim.now = nan``."""
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.call_in(bad, lambda: None)
    with pytest.raises(SimulationError):
        sim._schedule_call_at(5.0 + bad, lambda: None, ())
    with pytest.raises(SimulationError):
        sim.run(until=5.0 + bad)
    assert sim.pending == 0 and sim.now == 5.0
