"""Tests for fault-plan compilation (:mod:`repro.faults.injector`).

The contracts under test: a plan-driven run is bit-identical to the
same faults scripted by hand; same-seed fault runs are deterministic
across scheduler backends; node/partition events expand to the right
circuits; stochastic flaps respect their windows.
"""

import hashlib
import json

import pytest

from repro.faults import FaultEvent, FaultPlan, LinkFlap
from repro.metrics import HopNormalizedMetric
from repro.obs.tracer import (
    PARTITION,
    PARTITION_HEAL,
    PSN_CRASH,
    PSN_RESTART,
)
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_ring_network, build_two_region_network
from repro.traffic import TrafficMatrix


def _two_region(config: ScenarioConfig):
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic, config
    )
    return built, simulation


def _history_digest(simulation) -> str:
    payload = json.dumps(simulation.stats.cost_history).encode()
    return hashlib.sha256(payload).hexdigest()


_RUN = dict(duration_s=90.0, warmup_s=10.0, seed=5)


def test_plan_matches_hand_scripted_faults():
    """FaultPlan compiles to exactly the fail/restore_circuit_at story."""
    built, scripted = _two_region(ScenarioConfig(**_RUN))
    bridge = built.bridge_a[0].link_id
    scripted.fail_circuit_at(bridge, 30.0)
    scripted.restore_circuit_at(bridge, 60.0)
    scripted_report = scripted.run()

    plan = FaultPlan.single_outage(bridge, 30.0, 60.0)
    _, planned = _two_region(ScenarioConfig(faults=plan, **_RUN))
    planned_report = planned.run()

    assert planned_report.delivered_packets == \
        scripted_report.delivered_packets
    assert _history_digest(planned) == _history_digest(scripted)
    assert planned.fault_injector.faults_injected == 1
    assert planned.fault_injector.restores_injected == 1


@pytest.mark.parametrize("check", [False, True])
def test_fault_runs_deterministic(check):
    """Same seed, same plan, run twice => bit-identical.

    Run with and without the invariant monitor: a monitored run must
    be as repeatable as an unmonitored one (the monitor only reads).
    """
    plan = FaultPlan(
        events=(FaultEvent(30.0, "fail-circuit", link_id=12),
                FaultEvent(55.0, "restore-circuit", link_id=12)),
        flaps=(LinkFlap(14, mtbf_s=25.0, mttr_s=5.0, start_s=15.0),),
    )
    digests = set()
    reports = []
    for _ in range(2):
        _, simulation = _two_region(ScenarioConfig(
            faults=plan, check_invariants=check, **_RUN,
        ))
        reports.append(simulation.run())
        digests.add(_history_digest(simulation))
    assert len(digests) == 1
    assert reports[0].delivered_packets == reports[1].delivered_packets


def test_monitored_run_is_bit_identical_to_unmonitored():
    plan = FaultPlan.single_outage(12, 30.0, 60.0)
    _, plain = _two_region(ScenarioConfig(faults=plan, **_RUN))
    plain.run()
    _, checked = _two_region(ScenarioConfig(
        faults=plan, check_invariants=True, **_RUN
    ))
    checked.run()
    assert _history_digest(plain) == _history_digest(checked)


def test_crash_node_downs_every_circuit_and_restart_recovers():
    network = build_ring_network(4)
    traffic = TrafficMatrix.uniform(network, total_bps=20_000.0)
    plan = FaultPlan(events=(
        FaultEvent(20.0, "crash-node", node_id=1),
        FaultEvent(40.0, "restart-node", node_id=1),
    ))
    simulation = NetworkSimulation(
        network, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=60.0, warmup_s=10.0, seed=0,
                       faults=plan, trace="memory"),
    )
    incident = {
        link.link_id
        for link in network.out_links(1, include_down=True)
    }
    simulation.run()
    injector = simulation.fault_injector
    assert injector.faults_injected == len(incident)
    assert injector.restores_injected == len(incident)
    failed = {l for t, kind, l in injector.applied if kind == "fail"}
    assert failed == incident
    kinds = [e["kind"] for e in simulation.tracer.events()]
    assert PSN_CRASH in kinds and PSN_RESTART in kinds
    # Everything is back up at the end.
    assert all(link.up for link in network.links)


def test_partition_cuts_exactly_the_crossing_circuits():
    built, simulation = _two_region(ScenarioConfig(
        faults=FaultPlan(events=(
            # Nodes 0-2 are the whole west region of the 3+3 topology.
            FaultEvent(20.0, "partition", nodes=(0, 1, 2)),
            FaultEvent(50.0, "heal-partition", nodes=(0, 1, 2)),
        )),
        trace="memory", **_RUN,
    ))
    report = simulation.run()
    injector = simulation.fault_injector
    # Exactly the two bridge circuits cross the regional cut.
    bridge_ids = {built.bridge_a[0].link_id, built.bridge_b[0].link_id}
    failed = {l for t, kind, l in injector.applied if kind == "fail"}
    assert failed == bridge_ids
    kinds = [e["kind"] for e in simulation.tracer.events()]
    assert PARTITION in kinds and PARTITION_HEAL in kinds
    # While partitioned, cross-region traffic is undeliverable.
    assert report.other_drops > 0


def test_flap_respects_window_and_ends_restored():
    built, simulation = _two_region(ScenarioConfig(
        faults=FaultPlan(flaps=(
            LinkFlap(12, mtbf_s=5.0, mttr_s=3.0, start_s=20.0,
                     until_s=60.0),
        )),
        duration_s=120.0, warmup_s=10.0, seed=5,
    ))
    simulation.run()
    injector = simulation.fault_injector
    assert injector.flap_transitions >= 1
    times = [t for t, kind, _ in injector.applied if kind == "fail"]
    assert all(t >= 20.0 for t in times)
    assert all(t < 60.0 for t in times)
    # A pending repair completes after until_s: the run ends healthy.
    assert built.network.link(12).up


def test_flap_streams_are_per_link_independent():
    """Adding a flap on one circuit never changes another's draws."""
    def flap_times(flaps):
        _, simulation = _two_region(ScenarioConfig(
            faults=FaultPlan(flaps=flaps), duration_s=120.0,
            warmup_s=10.0, seed=5,
        ))
        simulation.run()
        return [
            (round(t, 9), kind, link)
            for t, kind, link in simulation.fault_injector.applied
            if link == 12
        ]

    alone = flap_times((LinkFlap(12, mtbf_s=20.0, mttr_s=4.0),))
    paired = flap_times((
        LinkFlap(12, mtbf_s=20.0, mttr_s=4.0),
        LinkFlap(14, mtbf_s=15.0, mttr_s=4.0),
    ))
    assert alone == paired
    assert len(alone) >= 2  # the link-12 flap really fired


def test_injector_rejects_flaps_on_one_duplex_circuit():
    """Links 12 and 13 are the two directions of bridge circuit A."""
    plan = FaultPlan(flaps=(
        LinkFlap(12, mtbf_s=20.0, mttr_s=4.0),
        LinkFlap(13, mtbf_s=15.0, mttr_s=4.0),
    ))
    with pytest.raises(ValueError, match="same duplex circuit"):
        _two_region(ScenarioConfig(faults=plan, **_RUN))


def test_injector_validates_targets():
    plan = FaultPlan(events=(
        FaultEvent(1.0, "fail-circuit", link_id=999),
    ))
    with pytest.raises(ValueError, match="no such link"):
        _two_region(ScenarioConfig(faults=plan, **_RUN))
    plan = FaultPlan(events=(FaultEvent(1.0, "crash-node", node_id=99),))
    with pytest.raises(ValueError, match="no such node"):
        _two_region(ScenarioConfig(faults=plan, **_RUN))


def test_goldens_do_not_see_faults():
    """A config without faults/invariants builds no injector/monitor."""
    _, simulation = _two_region(ScenarioConfig(**_RUN))
    assert simulation.fault_injector is None
    assert simulation.invariant_monitor is None
    assert simulation.timeline is None
