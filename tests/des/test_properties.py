"""Property tests for the DES kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator


@settings(max_examples=50, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1000.0),
        min_size=1,
        max_size=30,
    )
)
def test_property_events_fire_in_time_order(delays):
    """Whatever order calls are scheduled in, they fire in
    nondecreasing time order (ties by scheduling order)."""
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.call_in(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _d in fired]
    assert times == sorted(times)
    assert sorted(d for _t, d in fired) == sorted(delays)


@settings(max_examples=30, deadline=None)
@given(
    periods=st.lists(
        st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=5
    )
)
def test_property_process_clocks_are_exact(periods):
    """A chain of calls ends at exactly the sum of its delays -- no drift."""
    sim = Simulator()
    results = {}

    def sleep(index, period, remaining):
        if remaining:
            sim.call_in(period, sleep, index, period, remaining - 1)
        else:
            results[index] = sim.now

    for index, period in enumerate(periods):
        sleep(index, period, 3)
    sim.run()
    for index, period in enumerate(periods):
        assert abs(results[index] - 3 * period) < 1e-9
