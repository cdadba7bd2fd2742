"""What each part of the defense layer is needed for.

Every screen of :mod:`repro.routing.defense` and its purge pass is
held to a run that goes wrong without it.  A part is removed by
patching its constant to infinity (or, for the cost-range screen, by
widening the policy's bounds), never by a switch in the layer.

The attack runs are the collapse scenario of ``test_collapse.py``
(two-region 3+3 HN-SPF, 60 kb/s between the regions, node 0 attacking
from t = 30 s at 10 updates/s) run for 300 s, past the purge age:

============================  =========================================
removed                       what goes wrong
============================  =========================================
sequence window               corrupt-update ends poisoned
rate limit                    babbling-node sends >= 2x the updates
quarantine                    babbling-node sends >= 1.3x the updates
quarantine and cost bounds    corrupt-update's poison takes hold
purge                         a long partition heals with stale entries
                              and honest neighbours quarantined
============================  =========================================

The cost-range screen alone is backed up by quarantine: removed on its
own, corrupt-update is still contained.
"""

import math

import pytest

from repro.faults import BabblingNode, CorruptUpdate, FaultEvent, FaultPlan
from repro.metrics import HopNormalizedMetric
from repro.routing import defense
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_two_region_network
from repro.traffic import TrafficMatrix

ATTACKER = 0
_ATTACKS = {
    "corrupt-update": FaultPlan(adversarial=(
        CorruptUpdate(node_id=ATTACKER, rate_per_s=10.0, start_s=30.0),
    )),
    "babbling-node": FaultPlan(adversarial=(
        BabblingNode(node_id=ATTACKER, rate_per_s=10.0, start_s=30.0),
    )),
}


def _simulate(faults, duration_s, widen_cost_bounds=False):
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=duration_s, warmup_s=10.0, seed=3,
                       faults=faults, defenses=True),
    )
    if widen_cost_bounds:
        bounds = simulation.defense_policy.bounds
        for link_id in bounds:
            bounds[link_id] = (0, math.inf)
    return simulation, simulation.run()


def _attack(name, widen_cost_bounds=False):
    _, report = _simulate(_ATTACKS[name], 300.0, widen_cost_bounds)
    return report


def _remove(monkeypatch, *constants):
    for name in constants:
        monkeypatch.setattr(defense, name, math.inf)


@pytest.fixture(scope="module")
def full_babble():
    return _attack("babbling-node")


def test_the_full_chain_contains_both_attacks(full_babble):
    for report in (_attack("corrupt-update"), full_babble):
        containment = report.resilience["containment"]
        assert containment["poisoned_peak"] == 0
        assert containment["containment_s"] == 0.0


def test_without_the_sequence_window_corrupt_update_ends_poisoned(
    monkeypatch,
):
    _remove(monkeypatch, "SEQ_WINDOW")
    containment = _attack("corrupt-update").resilience["containment"]
    assert containment["poisoned_final"] >= 1
    assert containment["containment_s"] is None


def test_without_the_rate_limit_babbling_doubles_the_updates(
    monkeypatch, full_babble,
):
    _remove(monkeypatch, "RATE_BURST")
    report = _attack("babbling-node")
    assert report.telemetry.update_packets_sent >= \
        2 * full_babble.telemetry.update_packets_sent


def test_without_quarantine_babbling_sends_a_third_more(
    monkeypatch, full_babble,
):
    _remove(monkeypatch, "QUARANTINE_SCORE")
    report = _attack("babbling-node")
    assert report.telemetry.update_packets_sent >= \
        1.3 * full_babble.telemetry.update_packets_sent


def test_without_quarantine_and_cost_bounds_the_poison_takes_hold(
    monkeypatch,
):
    _remove(monkeypatch, "QUARANTINE_SCORE")
    report = _attack("corrupt-update", widen_cost_bounds=True)
    assert report.resilience["containment"]["poisoned_peak"] >= 1


def _partition(west):
    """Cut the west group off at t = 30 s, heal it at t = 3600 s: long
    enough for every origin to advance far past the sequence window."""
    return FaultPlan(events=(
        FaultEvent(at_s=30.0, action="partition", nodes=west),
        FaultEvent(at_s=3600.0, action="heal-partition", nodes=west),
    ))


def _partition_run():
    built = build_two_region_network(nodes_per_region=3)
    simulation, report = _simulate(
        _partition(tuple(built.west_ids)), 3800.0
    )
    psns = simulation.psns
    stale = [
        (node, origin)
        for node, psn in psns.items()
        for origin, source in psns.items()
        if psn.flooding.highest_seen(origin) != source.flooding.sequence
    ]
    return stale, report.telemetry


def test_the_purge_heals_a_long_partition():
    """Entries for the far side go unheard past the purge age and are
    forgotten, so the healed side's jumped sequences re-enter through
    the absent-origin door instead of tripping the sequence screen."""
    stale, telemetry = _partition_run()
    assert stale == []
    assert telemetry.defense_rejected_seq == 0
    assert telemetry.defense_quarantines == 0
    assert telemetry.defense_purged_entries > 0


def test_without_the_purge_a_long_partition_heals_stale(monkeypatch):
    _remove(monkeypatch, "PURGE_AGE_S")
    stale, telemetry = _partition_run()
    assert stale
    assert telemetry.defense_rejected_seq > 0
    assert telemetry.defense_quarantines > 0
