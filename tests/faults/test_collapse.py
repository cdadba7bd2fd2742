"""The 1980 collapse reproduction pair.

One scenario, four runs:

1. **bare baseline** -- no faults, no defenses;
2. **undefended corrupt-update** -- forged sequence numbers poison the
   flooding databases and the update traffic explodes (the collapse);
3. **defended corrupt-update** -- the screens reject the forgeries on
   arrival, the poison never takes hold, and the storm stays bounded
   by the corrupt node's own wire (containment);
4. **defended no-fault** -- bit-identical to the bare baseline, pinning
   the defenses' zero-behaviour-change guarantee on honest traffic.

This is the PR's acceptance test: collapse without defenses, containment
with them, and no cost for having them on.
"""

import dataclasses

from repro.faults import CorruptUpdate, FaultPlan
from repro.metrics import HopNormalizedMetric
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_two_region_network
from repro.traffic import TrafficMatrix

CORRUPT_NODE = 0
_RUN = dict(duration_s=90.0, warmup_s=10.0, seed=7)

_PLAN = FaultPlan(adversarial=(
    CorruptUpdate(node_id=CORRUPT_NODE, rate_per_s=10.0, start_s=30.0),
))


def _run(**config):
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(**{**_RUN, **config}),
    )
    return simulation, simulation.run()


def test_undefended_corruption_reproduces_the_collapse():
    _, bare = _run()
    simulation, attacked = _run(faults=_PLAN)
    # The update storm: at least 3x the faultless update traffic.
    assert attacked.telemetry.update_packets_sent >= \
        3 * bare.telemetry.update_packets_sent
    containment = attacked.resilience["containment"]
    # Every other node's database is poisoned, and stays poisoned: the
    # forged high sequence numbers block the honest updates forever.
    assert containment["poisoned_peak"] >= 5
    assert containment["poisoned_final"] >= 5
    assert containment["containment_s"] is None  # unbounded: no healing
    assert containment["storm_amplification"] > 2.0
    assert simulation.fault_injector.corrupt_updates_injected > 100


def test_defenses_contain_the_same_attack():
    _, bare = _run()
    _, attacked = _run(faults=_PLAN)
    simulation, defended = _run(faults=_PLAN, defenses=True)
    containment = defended.resilience["containment"]
    # The screens reject forgeries on arrival: the poison never takes
    # hold, so containment is immediate and bounded.
    assert containment["containment_s"] is not None
    assert containment["containment_s"] <= 30.0
    assert containment["poisoned_final"] == 0
    # Delivery holds up through the attack.
    assert containment["delivery_fraction_during"] is not None
    assert containment["delivery_fraction_during"] > 0.95
    assert defended.delivery_ratio > 0.95
    # The storm is bounded by the corrupt node's own wire: forgeries
    # are transmitted once and never re-flooded, so defended traffic
    # stays well below the undefended explosion.
    assert defended.telemetry.update_packets_sent < \
        0.9 * attacked.telemetry.update_packets_sent
    # The screens actually fired, and the neighbours quarantined the
    # corrupt node for sustained misbehaviour.
    telemetry = defended.telemetry
    assert telemetry.defense_rejected_seq + telemetry.defense_rejected_cost \
        + telemetry.defense_rejected_quarantine > 100
    assert telemetry.defense_quarantines > 0
    assert telemetry.defense_purge_passes > 0


def test_defenses_stay_contained_past_the_purge_age():
    """The attack outlasts the purge age.  The forger's neighbours have
    quarantined it, so nothing from it is *accepted* for minutes; the
    purge must still not forget its origin, or the next forged high
    sequence walks in through the absent-origin door once the
    quarantine ends."""
    _, defended = _run(faults=_PLAN, defenses=True, duration_s=300.0)
    containment = defended.resilience["containment"]
    assert containment["poisoned_final"] == 0
    assert containment["containment_s"] is not None


def test_defended_no_fault_run_is_bit_identical_to_bare():
    _, bare = _run()
    simulation, defended = _run(defenses=True)
    assert dataclasses.asdict(defended) == dataclasses.asdict(bare)
    # The guarantee is honest acceptance, not inactivity: the screens
    # ran (and passed everything), the purge pass ran (and evicted
    # nothing -- the 50-second re-advertisement cap refreshes every
    # honest entry well inside the age bound).
    telemetry = defended.telemetry
    assert telemetry.defense_rejected_quarantine == 0
    assert telemetry.defense_rejected_rate == 0
    assert telemetry.defense_rejected_cost == 0
    assert telemetry.defense_rejected_seq == 0
    assert telemetry.defense_quarantines == 0
    assert telemetry.defense_purge_passes > 0
    assert telemetry.defense_purged_entries == 0
