"""Tests for the resilience summary (:mod:`repro.report.resilience`)."""

import json

from repro.faults import FaultEvent, FaultPlan
from repro.metrics import HopNormalizedMetric
from repro.report.resilience import _burst, resilience_summary
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.sim.stats import DeliveryTimeline
from repro.topology import build_two_region_network
from repro.traffic import TrafficMatrix


def test_burst_chains_updates_within_the_quiet_gap():
    times = [10.0, 11.0, 13.0, 30.0, 31.0]
    # From t0=9: 10, 11, 13 chain (gaps < 5); 30 is past the gap.
    assert _burst(times, 9.0) == (13.0, 3)
    # From t0=29 only the trailing pair chains.
    assert _burst(times, 29.0) == (31.0, 2)
    # No update within the 5-s quiet gap of t0: an empty burst.
    assert _burst(times, 20.0) == (20.0, 0)
    assert _burst([], 5.0) == (5.0, 0)
    # A gap of exactly 5 s splits the burst (13 -> 18),
    # the same strict rule convergence_episodes applies.
    assert _burst([10.0, 13.0, 18.0], 9.0) == (13.0, 2)
    assert _burst([14.0], 9.0) == (9.0, 0)


def test_delivery_timeline_fraction():
    timeline = DeliveryTimeline()
    for t in (10.2, 10.7, 11.4, 12.9):
        timeline.record_offered(t)
    for t in (10.2, 11.4):
        timeline.record_delivered(t)
    assert timeline.fraction(10.0, 13.0) == 0.5
    # Outside any offered traffic the fraction is undefined (NaN).
    empty = timeline.fraction(100.0, 110.0)
    assert empty != empty


def _faulted_run():
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(
            duration_s=90.0, warmup_s=10.0, seed=5,
            faults=FaultPlan.single_outage(12, 30.0, 60.0),
            check_invariants=True,
        ),
    )
    report = simulation.run()
    return simulation, report


def test_summary_describes_each_applied_fault():
    simulation, report = _faulted_run()
    summary = resilience_summary(simulation)
    assert summary["fault_count"] == 2  # one fail + one restore
    kinds = [(f["kind"], f["link"]) for f in summary["faults"]]
    assert kinds == [("fail", 12), ("restore", 12)]
    for fault in summary["faults"]:
        # Both transitions trigger an update storm and full recovery.
        assert fault["storm_updates"] > 0
        assert 0.0 < fault["reconverge_s"] < 30.0
        assert 0.0 < fault["delivery_fraction"] <= 1.0
    assert summary["worst_reconverge_s"] >= summary["mean_reconverge_s"] > 0
    assert summary["total_storm_updates"] == \
        sum(f["storm_updates"] for f in summary["faults"])
    assert summary["min_delivery_fraction"] > 0.9  # brief, local outage
    assert summary["invariant_violations"] == 0
    # The run attaches the same summary to its report, JSON-ready.
    assert report.resilience["fault_count"] == 2
    json.dumps(report.resilience)


def test_summary_without_faults_is_empty_but_well_formed():
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=30.0, warmup_s=5.0, seed=1,
                       faults=FaultPlan()),
    )
    report = simulation.run()
    summary = report.resilience
    assert summary["fault_count"] == 0
    assert summary["faults"] == []
    assert summary["mean_reconverge_s"] == 0.0
    assert summary["min_delivery_fraction"] is None
    assert summary["flap_transitions"] == 0


def _run_with(plan, duration_s=90.0):
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=duration_s, warmup_s=10.0, seed=5,
                       faults=plan),
    )
    return simulation, simulation.run()


def test_fault_at_time_zero():
    """A fault coinciding with the start of the run: the summary must
    attribute the boot-time update flood to it rather than crash or
    produce a negative reconvergence span."""
    plan = FaultPlan(events=(
        FaultEvent(0.0, "fail-circuit", link_id=12),
        FaultEvent(40.0, "restore-circuit", link_id=12),
    ))
    simulation, report = _run_with(plan)
    summary = report.resilience
    assert summary["fault_count"] == 2
    first = summary["faults"][0]
    assert (first["t_s"], first["kind"]) == (0.0, "fail")
    assert first["reconverge_s"] >= 0.0
    # The t=0 fail merges into the boot flood; the restore is a clean,
    # isolated storm.
    assert summary["faults"][1]["storm_updates"] > 0
    json.dumps(summary)


def test_overlapping_fail_windows_on_one_circuit_apply_idempotently():
    """Two overlapping fail/restore windows on the same circuit: the
    injector's idempotence means only the *state-changing* transitions
    are applied (and summarized) -- the inner window's fail finds the
    circuit already down and the trailing restore finds it already up."""
    plan = FaultPlan(events=(
        FaultEvent(30.0, "fail-circuit", link_id=12),
        FaultEvent(60.0, "restore-circuit", link_id=12),
        FaultEvent(40.0, "fail-circuit", link_id=12),   # overlaps 30-60
        FaultEvent(70.0, "restore-circuit", link_id=12),
    ))
    simulation, report = _run_with(plan)
    applied = [(t, kind) for t, kind, _ in simulation.fault_injector.applied]
    assert applied == [(30.0, "fail"), (60.0, "restore")]
    summary = report.resilience
    assert summary["fault_count"] == 2
    assert [f["kind"] for f in summary["faults"]] == ["fail", "restore"]
    assert simulation.network.link(12).up


def test_last_fault_never_heals():
    """A plan whose final fault has no matching restore: the run ends
    degraded, and the summary reports the permanent outage without a
    bogus recovery."""
    plan = FaultPlan(events=(
        FaultEvent(30.0, "fail-circuit", link_id=12),
    ))
    simulation, report = _run_with(plan)
    assert not simulation.network.link(12).up  # still down at run end
    summary = report.resilience
    assert summary["fault_count"] == 1
    [fault] = summary["faults"]
    assert fault["kind"] == "fail"
    # The reconvergence burst is the reroute storm, bounded well before
    # the run's end -- reconvergence is about routing settling, not the
    # circuit coming back.
    assert 0.0 < fault["reconverge_s"] < 30.0
    assert fault["storm_updates"] > 0
    # Delivery stays defined (the surviving bridge carries the load).
    assert fault["delivery_fraction"] is not None
    assert summary["min_delivery_fraction"] == fault["delivery_fraction"]
    # No adversarial faults: the containment block is explicitly None.
    assert summary["containment"] is None


def test_reports_without_fault_plans_carry_no_summary():
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=30.0, warmup_s=5.0, seed=1),
    )
    report = simulation.run()
    assert report.resilience is None
