"""Tests for the live metrics pipeline (:mod:`repro.obs.meters`)."""

from dataclasses import asdict

import pytest

from repro.faults import CorruptUpdate, FaultEvent, FaultPlan, LinkFlap
from repro.obs.meters import Histogram, counter_timeseries, to_prometheus
from repro.report import read_trace
from repro.sim import ScenarioConfig, build_scenario

_QUICK = dict(duration_s=40.0, warmup_s=5.0)


# ----------------------------------------------------------------------
# Histogram and exposition
# ----------------------------------------------------------------------
def test_histogram_buckets():
    histogram = Histogram("repro_test_hist", (0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    # Cumulative: <=0.1 -> 1, <=1.0 -> 3, <=10.0 -> 4 (+Inf holds 5).
    assert snapshot["buckets"] == [[0.1, 1], [1.0, 3], [10.0, 4]]
    assert snapshot["count"] == 5
    assert snapshot["sum"] == pytest.approx(56.05)
    # A value exactly on a bound lands in that bound's bucket.
    edge = Histogram("repro_test_edge", (1.0,))
    edge.observe(1.0)
    assert edge.snapshot()["buckets"] == [[1.0, 1]]
    with pytest.raises(ValueError):
        Histogram("repro_test_bad", (1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("repro_test_empty", ())


def test_prometheus_exposition_format():
    histogram = Histogram("repro_link_utilization", (0.5, 1.0))
    histogram.observe(0.2)
    histogram.observe(2.0)
    text = to_prometheus({
        "t": 10.0,
        "counters": {"repro_flood_generated": 3.0},
        "gauges": {"repro_events_pending": 2.5},
        "histograms": {histogram.name: histogram.snapshot()},
    })
    lines = text.splitlines()
    assert lines[:3] == [
        "# HELP repro_events_pending Scheduler entries still pending",
        "# TYPE repro_events_pending gauge",
        "repro_events_pending 2.5",
    ]
    assert "# HELP repro_flood_generated " \
        "RunTelemetry.flood_generated running total" in lines
    assert "# TYPE repro_flood_generated counter" in lines
    assert "repro_flood_generated 3" in lines
    assert "# TYPE repro_link_utilization histogram" in lines
    assert 'repro_link_utilization_bucket{le="0.5"} 1' in lines
    assert 'repro_link_utilization_bucket{le="1"} 1' in lines
    assert 'repro_link_utilization_bucket{le="+Inf"} 2' in lines
    assert "repro_link_utilization_sum 2.2" in lines
    assert "repro_link_utilization_count 2" in lines
    assert text.endswith("\n")


# ----------------------------------------------------------------------
# The simulation pipeline
# ----------------------------------------------------------------------
def test_metered_run_samples_and_is_bit_identical():
    bare = build_scenario(
        "two-region-hnspf", config=ScenarioConfig(**_QUICK)
    ).run()
    simulation = build_scenario(
        "two-region-hnspf",
        config=ScenarioConfig(**_QUICK, metrics="memory"),
    )
    report = simulation.run()
    # The sampler's read-only timer never perturbs the run.
    assert asdict(report) == asdict(bare)
    meters = simulation.meters
    # One sample per measurement interval plus the end-of-run sample.
    assert meters.samples_taken == len(meters.snapshots) >= 4
    assert report.telemetry.meter_samples == meters.samples_taken
    # Snapshots are time-ordered and carry the telemetry totals.
    times = [s["t"] for s in meters.snapshots]
    assert times == sorted(times)
    final = meters.snapshots[-1]["counters"]
    assert final["repro_flood_generated"] == \
        report.telemetry.flood_generated
    assert final["repro_events_processed"] == \
        report.telemetry.events_processed
    # Counters only ever grow across the snapshot stream.
    series = counter_timeseries(meters.snapshots, "repro_flood_accepted")
    values = [value for _t, value in series]
    assert values == sorted(values)
    # Utilization samples landed in the histogram.
    util = meters.snapshots[-1]["histograms"]["repro_link_utilization"]
    assert util["count"] > 0


def test_counters_never_decrease_under_faults_and_defenses():
    """Every counter is monotonic across a faulted, defended run that is
    split over two ``run`` calls."""
    plan = FaultPlan(
        events=(FaultEvent(12.0, "fail-circuit", link_id=0),
                FaultEvent(25.0, "restore-circuit", link_id=0)),
        flaps=(LinkFlap(2, mtbf_s=8.0, mttr_s=3.0),),
        adversarial=(CorruptUpdate(node_id=1, rate_per_s=2.0,
                                   start_s=10.0),),
    )
    simulation = build_scenario(
        "two-region-hnspf",
        config=ScenarioConfig(**_QUICK, metrics="memory", faults=plan,
                              defenses=True, check_invariants=True),
    )
    simulation.run(until_s=22.0)
    simulation.run()
    snapshots = simulation.meters.snapshots
    final = snapshots[-1]["counters"]
    assert final["repro_faults_injected"] > 0
    assert final["repro_corrupt_updates_injected"] > 0
    assert final["repro_invariant_checks"] > 0
    for name in final:
        values = [value for _t, value in counter_timeseries(snapshots, name)]
        assert len(values) == len(snapshots), name
        assert values == sorted(values), name


def test_exposition_lists_every_meter_of_the_last_snapshot():
    simulation = build_scenario(
        "two-region-dspf",
        config=ScenarioConfig(**_QUICK, metrics="memory"),
    )
    simulation.run()
    snapshot = simulation.meters.snapshots[-1]
    lines = simulation.meters.to_prometheus().splitlines()
    for table, kind in (("counters", "counter"), ("gauges", "gauge")):
        for name, value in snapshot[table].items():
            samples = [i for i, line in enumerate(lines)
                       if line.split(" ")[0] == name]
            assert len(samples) == 1, name
            at = samples[0]
            assert lines[at - 2].startswith(f"# HELP {name} ")
            assert lines[at - 1] == f"# TYPE {name} {kind}"
            assert float(lines[at].split(" ")[1]) == value
    util = snapshot["histograms"]["repro_link_utilization"]
    assert f'repro_link_utilization_bucket{{le="+Inf"}} {util["count"]}' \
        in lines
    assert f"repro_link_utilization_count {util['count']}" in lines


def test_metrics_jsonl_export(tmp_path):
    path = str(tmp_path / "metrics.jsonl")
    simulation = build_scenario(
        "two-region-dspf", config=ScenarioConfig(**_QUICK, metrics=path)
    )
    simulation.run()
    snapshots = read_trace(path)
    assert len(snapshots) == simulation.meters.samples_taken
    assert snapshots[-1] == simulation.meters.snapshots[-1]
    for snapshot in snapshots:
        assert set(snapshot) == {"t", "counters", "gauges", "histograms"}


def test_metrics_prometheus_reflects_final_state():
    simulation = build_scenario(
        "two-region-dspf",
        config=ScenarioConfig(**_QUICK, metrics="memory"),
    )
    report = simulation.run()
    text = simulation.meters.to_prometheus()
    assert (
        f"repro_flood_generated {report.telemetry.flood_generated}"
        in text.splitlines()
    )
    assert "repro_link_utilization_bucket" in text


def test_metrics_spec_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(metrics=7)


def test_sampler_determinism_same_seed_same_snapshots():
    def snapshots():
        simulation = build_scenario(
            "two-region-hnspf",
            config=ScenarioConfig(**_QUICK, metrics="memory", seed=3),
        )
        simulation.run()
        return simulation.meters.snapshots

    assert snapshots() == snapshots()
