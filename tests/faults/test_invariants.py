"""Tests for the runtime invariant monitor (:mod:`repro.faults.invariants`).

Two directions: a clean faulted scenario must report *zero* violations
(the implementation actually honors the paper's guarantees), and a
deliberately mis-clipped bound must be caught (the monitor actually
checks something).  The second direction tightens a bound snapshot on
the monitor itself, so the simulation under test stays untouched.
"""

import pytest

from repro.faults import (
    INVARIANTS,
    FaultPlan,
    InvariantViolation,
    InvariantViolationError,
    LinkFlap,
)
from repro.metrics import HopNormalizedMetric, MinHopMetric
from repro.obs.tracer import INVARIANT_VIOLATION
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_two_region_network
from repro.traffic import TrafficMatrix

BRIDGE = 12  # bridge circuit A of the 3+3 two-region topology

_RUN = dict(duration_s=90.0, warmup_s=10.0, seed=5)


def _faulted(check_invariants, trace=None, metric=None):
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    config = ScenarioConfig(
        faults=FaultPlan.single_outage(BRIDGE, 30.0, 60.0),
        check_invariants=check_invariants, trace=trace, **_RUN,
    )
    return NetworkSimulation(
        built.network, metric or HopNormalizedMetric(), traffic, config
    )


def test_clean_minhop_run_has_zero_violations():
    """Min-hop's band is its hop cost: the monitor checks it too."""
    simulation = _faulted(check_invariants=True, metric=MinHopMetric())
    simulation.run()
    monitor = simulation.invariant_monitor
    assert set(monitor._bounds.values()) == {(30, 30)}
    assert monitor.violations == []


def _tighten_bound(simulation):
    """Shrink the monitor's snapshot of the bridge's cost band.

    The restored 56K trunk re-enters at its maximum cost, so capping
    the band one below that maximum guarantees a cost-bounds hit
    without touching the simulation itself.
    """
    monitor = simulation.invariant_monitor
    lo, hi = monitor._bounds[BRIDGE]
    monitor._bounds[BRIDGE] = (lo, hi - 1)
    return hi


def test_clean_faulted_run_has_zero_violations():
    simulation = _faulted(check_invariants=True)
    report = simulation.run()
    monitor = simulation.invariant_monitor
    assert monitor.violations == []
    assert report.invariant_violations == []
    assert monitor.checks_run >= 8  # one per routing period
    assert monitor.loop_checks_run >= 1  # quiet periods were verified
    summary = monitor.summary()
    assert summary["violations"] == 0
    assert set(summary["per_invariant"]) == set(INVARIANTS)
    assert all(n == 0 for n in summary["per_invariant"].values())


def test_monitor_catches_out_of_bounds_cost():
    simulation = _faulted(check_invariants=True)
    hi = _tighten_bound(simulation)
    report = simulation.run()
    violations = simulation.invariant_monitor.violations
    assert violations, "tightened bound was never tripped"
    assert all(isinstance(v, InvariantViolation) for v in violations)
    hits = [v for v in violations if v.invariant == "cost-bounds"]
    assert hits and all(v.link == BRIDGE for v in hits)
    assert f"advertised cost {hi}" in hits[0].detail
    assert report.invariant_violations == violations
    assert simulation.invariant_monitor.summary()["per_invariant"][
        "cost-bounds"
    ] == len(hits)


def test_violations_become_trace_events():
    simulation = _faulted(check_invariants=True, trace="memory")
    _tighten_bound(simulation)
    simulation.run()
    events = [
        e for e in simulation.tracer.events()
        if e["kind"] == INVARIANT_VIOLATION
    ]
    assert events
    assert events[0]["invariant"] == "cost-bounds"
    assert "outside" in events[0]["detail"]
    assert len(events) == len(simulation.invariant_monitor.violations)


def test_strict_mode_raises_on_first_violation():
    simulation = _faulted(check_invariants="strict")
    _tighten_bound(simulation)
    with pytest.raises(InvariantViolationError) as excinfo:
        simulation.run()
    violation = excinfo.value.violation
    assert violation.invariant == "cost-bounds"
    assert violation.link == BRIDGE
    assert "cost-bounds" in str(excinfo.value)
    # Strict mode stops at the first breach.
    assert len(simulation.invariant_monitor.violations) == 1


def test_strict_mode_raises_under_stochastic_flapping():
    """Strict mode must fire from a *flap*-driven restore too, not just
    a scripted one: flap transitions re-enter the restored trunk at its
    maximum cost, so the same tightened bound must trip regardless of
    which machinery downed the circuit."""
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    plan = FaultPlan(flaps=(
        LinkFlap(BRIDGE, mtbf_s=15.0, mttr_s=5.0, start_s=15.0),
    ))
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(faults=plan, check_invariants="strict", **_RUN),
    )
    _tighten_bound(simulation)
    with pytest.raises(InvariantViolationError) as excinfo:
        simulation.run()
    violation = excinfo.value.violation
    assert violation.invariant == "cost-bounds"
    assert violation.link == BRIDGE
    assert len(simulation.invariant_monitor.violations) == 1
    # The identical run in record mode survives to the end with the
    # same first violation, and proves the flap machinery really drives
    # the run (strict aborts at the first check, which the 56K bridge's
    # max-cost ease-in boot advertisement already trips).  Fresh
    # topology: the strict run left its network object mid-flap.
    rebuilt = build_two_region_network(nodes_per_region=3)
    recorded = NetworkSimulation(
        rebuilt.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(faults=plan, check_invariants="record", **_RUN),
    )
    _tighten_bound(recorded)
    recorded.run()
    violations = recorded.invariant_monitor.violations
    assert violations
    assert violations[0].invariant == violation.invariant
    assert violations[0].t_s == violation.t_s
    assert recorded.fault_injector.faults_injected >= 1
    assert recorded.fault_injector.flap_transitions >= 1


def test_violation_serialization():
    violation = InvariantViolation(
        t_s=12.5, invariant="rate-limit", detail="rose too fast",
        node=3, link=7,
    )
    assert violation.to_dict() == {
        "t_s": 12.5, "invariant": "rate-limit",
        "detail": "rose too fast", "node": 3, "link": 7,
    }
    assert "node 3" in str(violation) and "link 7" in str(violation)
    bare = InvariantViolation(t_s=1.0, invariant="routing-loop", detail="x")
    assert "node" not in bare.to_dict() and "link" not in bare.to_dict()
