"""Trace-to-timeseries adapter tests, including the acceptance check:

a JSONL trace of a paper scenario, post-processed by
:mod:`repro.report.timeseries`, reproduces the reported-cost and
utilization time series the live collector recorded -- the recorded
trace is a complete substitute for in-memory histories.
"""

import pytest

from repro.obs.spans import (
    build_update_spans,
    convergence_episodes,
    propagation_latencies,
)
from repro.obs.tracer import COST_CHANGE, UTILIZATION, RingSink, Tracer
from repro.report import (
    bucketed_rate,
    cost_timeseries,
    drop_timeseries,
    event_counts,
    read_trace,
    utilization_timeseries,
)
from repro.sim import ScenarioConfig, build_scenario

SCENARIO = "two-region-dspf"


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced paper-scenario run shared by the module's tests."""
    path = tmp_path_factory.mktemp("traces") / "run.jsonl"
    config = ScenarioConfig(duration_s=60.0, warmup_s=0.0, trace=str(path))
    simulation = build_scenario(SCENARIO, config=config)
    simulation.run()
    simulation.tracer.close()
    return simulation, read_trace(str(path))


def test_trace_reproduces_reported_cost_series(traced_run):
    simulation, events = traced_run
    series = cost_timeseries(events)
    assert series  # the scenario oscillates; costs did change
    recorded_links = {lid for _t, lid, _c in simulation.stats.cost_history}
    assert set(series) == recorded_links
    for link_id in recorded_links:
        assert series[link_id] == simulation.stats.cost_series(link_id)


def test_trace_reproduces_utilization_series(traced_run):
    simulation, events = traced_run
    series = utilization_timeseries(events)
    assert set(series) == set(simulation.stats.utilization_history)
    for link_id, samples in simulation.stats.utilization_history.items():
        assert series[link_id] == samples


def test_single_link_filter(traced_run):
    simulation, events = traced_run
    link_id = next(iter(cost_timeseries(events)))
    only = cost_timeseries(events, link_id=link_id)
    assert set(only) == {link_id}
    assert only[link_id] == simulation.stats.cost_series(link_id)


def test_event_counts_totals_match_the_tracer(traced_run):
    simulation, events = traced_run
    counts = event_counts(events)
    assert sum(counts.values()) == simulation.tracer.events_emitted
    assert counts[COST_CHANGE] == len(simulation.stats.cost_history)


def test_adapters_accept_trace_event_objects():
    """The events a tracer's ring holds feed the adapters as they are."""
    tracer = Tracer(RingSink())
    tracer.emit(1.0, COST_CHANGE, link=7, value=10)
    tracer.emit(2.0, UTILIZATION, link=7, value=0.5)
    events = tracer.events()
    assert cost_timeseries(events) == {7: [(1.0, 10)]}
    assert utilization_timeseries(events) == {7: [(2.0, 0.5)]}
    assert drop_timeseries(events) == []


def test_read_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"t": 1.0, "kind": "cost-change", "link": 0, '
                    '"value": 3}\n\n')
    assert read_trace(str(path)) == [
        {"t": 1.0, "kind": "cost-change", "link": 0, "value": 3}
    ]


def test_spans_adapters_on_recorded_trace(traced_run):
    """The spans views run on a JSONL trace read back from disk."""
    _simulation, events = traced_run
    latencies = propagation_latencies(build_update_spans(events))
    assert latencies
    assert all(latency >= 0.0 for latency in latencies)
    episodes = convergence_episodes(events, quiet_s=5.0)
    assert episodes
    assert all(end >= start for start, end in episodes)


def test_bucketed_rate():
    series = [(0.5, 1), (1.5, 1), (1.9, 1), (10.5, 1)]
    rates = bucketed_rate(series, 2.0)
    assert rates[0] == (0.0, 1.5)   # three events in [0, 2)
    assert rates[-1] == (10.0, 0.5)
    assert all(rate == 0.0 for _start, rate in rates[1:-1])
    assert bucketed_rate([], 2.0) == []
    with pytest.raises(ValueError):
        bucketed_rate(series, 0.0)
