"""Tests for adversarial fault kinds (:mod:`repro.faults.adversarial`).

Schema round-trips and validation are pure-data tests; the behavioural
half drives each fault kind through a small two-region simulation and
asserts its observable signature (forged-update counters, frozen
control planes, out-of-order control traffic) plus the repo-wide
invariant: same seed, same trajectory.
"""

import dataclasses

import pytest

from repro.faults import (
    ADVERSARIAL_KINDS,
    BabblingNode,
    CorruptUpdate,
    FaultPlan,
    ReorderCircuit,
    StuckNode,
    adversarial_from_dict,
)
from repro.metrics import HopNormalizedMetric
from repro.obs.tracer import UPDATE_REJECTED
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_two_region_network
from repro.traffic import TrafficMatrix

_RUN = dict(duration_s=80.0, warmup_s=10.0, seed=7)


def _simulate(plan=None, trace=None, **config):
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(faults=plan, trace=trace, **_RUN, **config),
    )
    report = simulation.run()
    return simulation, report


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
def test_json_round_trip_through_fault_plan(tmp_path):
    plan = FaultPlan(adversarial=(
        CorruptUpdate(node_id=1, rate_per_s=2.0, start_s=30.0),
        BabblingNode(node_id=2, rate_per_s=8.0, until_s=60.0),
        StuckNode(node_id=3, start_s=20.0, until_s=50.0),
        ReorderCircuit(link_id=4, probability=0.5, depth=2),
    ))
    path = plan.to_json(str(tmp_path / "plan.json"))
    assert FaultPlan.from_json(path) == plan


def test_adversarial_key_absent_for_failstop_plans():
    # Old fail-stop plans keep their exact serialized form.
    assert "adversarial" not in FaultPlan.single_outage(0, 10.0, 20.0).to_dict()


def test_from_dict_dispatches_on_kind():
    for kind in ADVERSARIAL_KINDS:
        target = "link_id" if kind == "reorder-circuit" else "node_id"
        fault = adversarial_from_dict({"kind": kind, target: 0})
        assert fault.kind == kind
    with pytest.raises(ValueError, match="kind"):
        adversarial_from_dict({"node_id": 0})
    with pytest.raises(ValueError, match="unknown adversarial kind"):
        adversarial_from_dict({"kind": "gremlin", "node_id": 0})


def test_adversarial_entry_rejects_a_misspelt_key():
    # Once ignored: the babbler never stopped.
    with pytest.raises(ValueError, match="babbling-node keys.*'untl_s'"):
        FaultPlan.from_dict({"adversarial": [
            {"kind": "babbling-node", "node_id": 11, "untl_s": 120.0},
        ]})


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CorruptUpdate(node_id=-1)
    with pytest.raises(ValueError):
        CorruptUpdate(node_id=0, rate_per_s=0.0)
    with pytest.raises(ValueError):
        BabblingNode(node_id=0, start_s=50.0, until_s=50.0)
    with pytest.raises(ValueError):
        ReorderCircuit(link_id=0, probability=0.0)
    with pytest.raises(ValueError):
        ReorderCircuit(link_id=0, depth=0)


def test_plan_rejects_duplicate_targets():
    with pytest.raises(ValueError, match="duplicate adversarial fault"):
        FaultPlan(adversarial=(
            CorruptUpdate(node_id=1), CorruptUpdate(node_id=1, rate_per_s=9.0),
        ))
    # Different kinds on one node are fine (separate streams).
    FaultPlan(adversarial=(CorruptUpdate(node_id=1), BabblingNode(node_id=1)))


def test_injector_validates_targets_against_the_network():
    with pytest.raises(ValueError, match="no such node"):
        _simulate(FaultPlan(adversarial=(CorruptUpdate(node_id=99),)))
    with pytest.raises(ValueError, match="no such link"):
        _simulate(FaultPlan(adversarial=(ReorderCircuit(link_id=999),)))
    with pytest.raises(ValueError, match="same duplex circuit"):
        # Links 0 and 1 are the two directions of one circuit.
        _simulate(FaultPlan(adversarial=(
            ReorderCircuit(link_id=0), ReorderCircuit(link_id=1),
        )))


# ----------------------------------------------------------------------
# Behaviour
# ----------------------------------------------------------------------
def test_corrupt_update_poisons_undefended_databases():
    plan = FaultPlan(adversarial=(
        CorruptUpdate(node_id=0, rate_per_s=1.0, start_s=30.0),
    ))
    simulation, report = _simulate(plan)
    injector = simulation.fault_injector
    assert injector.corrupt_updates_injected > 10
    assert all(k == "corrupt-update" for _, k, _ in
               injector.adversarial_applied)
    assert all(t >= 30.0 for t, _, _ in injector.adversarial_applied)
    containment = report.resilience["containment"]
    # Undefended, the forged sequence numbers stick: poisoned nodes
    # never heal, so the containment time is unbounded.
    assert containment["poisoned_peak"] > 0
    assert containment["poisoned_final"] > 0
    assert containment["containment_s"] is None
    assert report.telemetry.corrupt_updates_injected == \
        injector.corrupt_updates_injected


def test_corrupt_update_trajectory_is_seed_deterministic():
    plan = FaultPlan(adversarial=(
        CorruptUpdate(node_id=0, rate_per_s=1.5, start_s=30.0),
    ))
    _, first = _simulate(plan)
    _, second = _simulate(plan)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    counters = {
        name: value for name, value in first.telemetry.to_dict().items()
        if name != "wall_s"
    }
    for name, value in counters.items():
        assert value == getattr(second.telemetry, name)


def test_babbling_node_storms_well_formed_updates():
    quiet, quiet_report = _simulate(FaultPlan(adversarial=(
        BabblingNode(node_id=0, rate_per_s=0.001, start_s=79.0),
    )))
    noisy, noisy_report = _simulate(FaultPlan(adversarial=(
        BabblingNode(node_id=0, rate_per_s=10.0, start_s=30.0),
    )))
    assert noisy.fault_injector.babble_updates_injected > 300
    # Well-formed: no node's database is ever poisoned...
    assert noisy_report.resilience["containment"]["poisoned_peak"] == 0
    # ... but the storm multiplies network-wide update traffic.
    assert noisy_report.telemetry.update_packets_sent > \
        2 * quiet_report.telemetry.update_packets_sent


def test_stuck_node_freezes_and_thaws_the_control_plane():
    plan = FaultPlan(adversarial=(
        StuckNode(node_id=0, start_s=30.0, until_s=60.0),
    ))
    simulation, report = _simulate(plan)
    injector = simulation.fault_injector
    assert injector.stuck_transitions == 2
    times = [t for t, kind, _ in injector.adversarial_applied
             if kind == "stuck-node"]
    assert times == [30.0, 60.0]
    assert not simulation.psns[0].flooding.stuck  # thawed by run end
    assert report.telemetry.stuck_transitions == 2
    # A permanently stuck node never thaws.
    forever, _ = _simulate(FaultPlan(adversarial=(
        StuckNode(node_id=0, start_s=30.0),
    )))
    assert forever.fault_injector.stuck_transitions == 1
    assert forever.psns[0].flooding.stuck


def test_reorder_circuit_swaps_queued_control_packets():
    # The boot flood queues several control packets per link at once,
    # so reordering from t=0 on a bridge circuit is exercised heavily.
    bridge = 12
    plan = FaultPlan(adversarial=(
        ReorderCircuit(link_id=bridge, probability=1.0, depth=3),
    ))
    simulation, report = _simulate(plan)
    assert simulation.fault_injector.reorder_swaps > 0
    assert report.telemetry.reorder_swaps == \
        simulation.fault_injector.reorder_swaps
    # Sequence numbering absorbs the reordering: routing still settles.
    assert report.delivery_ratio > 0.95


def test_defenses_reject_forgeries_with_trace_events():
    plan = FaultPlan(adversarial=(
        CorruptUpdate(node_id=0, rate_per_s=1.5, start_s=30.0),
    ))
    simulation, report = _simulate(plan, trace="memory", defenses=True)
    rejected = [e for e in simulation.tracer.events()
                if e["kind"] == UPDATE_REJECTED]
    assert rejected
    reasons = {e["reason"] for e in rejected}
    assert reasons <= {"quarantined", "rate-limit", "cost-range",
                       "seq-implausible"}
    assert report.telemetry.defense_rejected_seq + \
        report.telemetry.defense_rejected_cost > 0
    # Defended, the poison never takes hold.
    assert report.resilience["containment"]["poisoned_peak"] == 0
