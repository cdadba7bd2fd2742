"""Tests for streaming fleet aggregation (``run_many(..., stream=)``)."""

import io
from dataclasses import asdict

import pytest

from repro.obs.streaming import (
    FleetResult,
    ProgressMonitor,
    StreamAggregator,
    StreamConfig,
)
from repro.obs.telemetry import RunTelemetry
from repro.sim import (
    RunSpec,
    ScenarioConfig,
    combined_telemetry,
    run_many,
)

_QUICK = dict(duration_s=30.0, warmup_s=5.0)


def _specs(count=4, scenario="two-region-hnspf"):
    return [
        RunSpec(scenario, ScenarioConfig(**_QUICK, seed=seed))
        for seed in range(1, count + 1)
    ]


def _comparable(telemetry):
    """Telemetry dict minus the wall-clock (nondeterministic) field."""
    values = telemetry.to_dict()
    values.pop("wall_s")
    return values


# ----------------------------------------------------------------------
# Master-side reducers
# ----------------------------------------------------------------------
def test_stream_aggregator_merges_deltas_per_run_and_fleet():
    aggregator = StreamAggregator()
    first = RunTelemetry(runs=1, events_processed=10)
    second = RunTelemetry(runs=0, events_processed=5)
    aggregator.add_delta(0, first)
    aggregator.add_delta(0, second)
    aggregator.add_delta(1, RunTelemetry(runs=1, events_processed=100))
    assert aggregator.deltas_received == 3
    assert aggregator.run_telemetry(0).events_processed == 15
    assert aggregator.run_telemetry(0).runs == 1
    assert aggregator.run_telemetry(2) is None
    assert aggregator.total.runs == 2
    assert aggregator.total.events_processed == 115
    assert set(aggregator.per_run()) == {0, 1}


def test_progress_monitor_counts_and_eta():
    clock = iter([0.0, 10.0, 10.0, 10.0, 10.0]).__next__
    monitor = ProgressMonitor(4, clock=clock)
    assert monitor.eta_s is None
    monitor.note_started(0)
    monitor.note_completed(0)
    monitor.note_failed(1)
    # 2 finished in 10 s -> 2 remaining take ~10 s more.
    assert monitor.finished == 2
    assert monitor.eta_s == pytest.approx(10.0)
    assert "runs 2/4 done" in monitor.status()
    assert "1 failed" in monitor.status()


def test_progress_monitor_status_line_renders_and_closes():
    stream = io.StringIO()
    monitor = ProgressMonitor(2, status_line=True, stream=stream)
    monitor.note_completed(0)
    monitor.close()
    output = stream.getvalue()
    assert "runs 1/2 done" in output
    assert output.endswith("\n")
    # close() is idempotent and quiet without a line open.
    monitor.close()


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(checkpoint_s=0.0)
    with pytest.raises(ValueError):
        run_many(_specs(2), stream=True, retries=1)
    with pytest.raises(ValueError):
        run_many(_specs(2), stream=True, timeout_s=5.0)


# ----------------------------------------------------------------------
# End-to-end equivalence (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batch_baseline():
    specs = _specs()
    reports = run_many(specs, processes=2)
    return specs, reports, combined_telemetry(reports)


@pytest.mark.slow
def test_streaming_equals_combined_telemetry_pooled(batch_baseline):
    specs, reports, combined = batch_baseline
    fleet = run_many(specs, processes=2, stream=True)
    assert isinstance(fleet, FleetResult)
    assert fleet.ok
    assert _comparable(fleet.telemetry) == _comparable(combined)
    # The rebuilt reports are the batch path's reports, field for field.
    for rebuilt, reference in zip(fleet.reports, reports):
        assert asdict(rebuilt) == asdict(reference)
        assert rebuilt.telemetry is not None
    assert fleet.progress.completed == len(specs)


def test_streaming_equals_combined_telemetry_serial(batch_baseline):
    specs, reports, combined = batch_baseline
    fleet = run_many(specs, processes=1, stream=True)
    assert _comparable(fleet.telemetry) == _comparable(combined)
    for rebuilt, reference in zip(fleet.reports, reports):
        assert asdict(rebuilt) == asdict(reference)


def test_checkpointed_streaming_preserves_results(batch_baseline):
    """Periodic deltas leave reports bit-identical; only the kernel
    event counters additionally count the checkpoint timer's own ticks."""
    specs, reports, combined = batch_baseline
    fleet = run_many(
        specs, processes=1, stream=StreamConfig(checkpoint_s=10.0)
    )
    for rebuilt, reference in zip(fleet.reports, reports):
        assert asdict(rebuilt) == asdict(reference)
    # Several deltas per run flowed home, not one.
    assert fleet.progress.completed == len(specs)
    streamed = _comparable(fleet.telemetry)
    expected = _comparable(combined)
    kernel = ("events_processed", "events_pending")
    for name in kernel:
        streamed.pop(name)
        expected.pop(name)
    assert streamed == expected


def test_streaming_collects_failures():
    specs = _specs(2) + [
        RunSpec("_poison-fail", ScenarioConfig(**_QUICK, seed=9))
    ]
    fleet = run_many(specs, processes=1, stream=True, on_error="collect")
    assert not fleet.ok
    assert [r is not None for r in fleet.reports] == [True, True, False]
    [failure] = fleet.failures
    assert (failure.scenario, failure.seed) == ("_poison-fail", 9)
    assert failure.index == 2
    assert fleet.progress.failed == 1
    # The two completed runs still aggregated.
    assert fleet.telemetry.runs == 2


def test_streaming_raises_on_first_failure_by_default():
    from repro.sim import RunFailedError

    specs = [RunSpec("_poison-fail", ScenarioConfig(**_QUICK, seed=3))]
    with pytest.raises(RunFailedError, match="_poison-fail"):
        run_many(specs, processes=1, stream=True)
