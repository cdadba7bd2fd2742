"""Golden-snapshot cases: same-seed runs that must never change.

Each case builds and runs one simulation whose :class:`SimulationReport`
was recorded from the pre-optimization tree.  The hot-path layer (SPF
cache, forwarding tables, DES fast path) is required to be a *pure*
speed change, so every one of these runs must stay bit-identical --
including the full reported-cost history, which pins the routing
dynamics, not just the packet totals.

The case set deliberately crosses every forwarding feature: plain
single-path, equal-cost multipath (both modes), line errors, RFNM flow
control, a link failure/recovery (topology up/down invalidation), and
a stuck control plane overlapping a failure/recovery of one of the
stuck node's own circuits -- the case that pins the measurement
interval's rules: a link-up starts a fresh interval, and an interval
skipped while the link is down or the control plane is stuck keeps
accumulating.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict

from repro.faults import FaultEvent, FaultPlan, StuckNode
from repro.metrics import DelayMetric, HopNormalizedMetric
from repro.sim import NetworkSimulation, ScenarioConfig, build_scenario
from repro.topology import build_ring_network, build_two_region_network
from repro.traffic import TrafficMatrix


def _ring(metric, config: ScenarioConfig, nodes: int = 4,
          total_bps: float = 40_000.0) -> NetworkSimulation:
    network = build_ring_network(nodes)
    traffic = TrafficMatrix.uniform(network, total_bps=total_bps)
    return NetworkSimulation(network, metric, traffic, config)


def _case_arpanet_aug87():
    config = ScenarioConfig(duration_s=30.0, warmup_s=10.0, seed=3)
    simulation = build_scenario("aug87", config=config)
    return simulation, simulation.run()


def _case_two_region_hnspf():
    config = ScenarioConfig(duration_s=60.0, warmup_s=10.0, seed=1)
    simulation = build_scenario("two-region-hnspf", config=config)
    return simulation, simulation.run()


def _case_ring_multipath_flow():
    simulation = _ring(
        HopNormalizedMetric(),
        ScenarioConfig(duration_s=60.0, warmup_s=10.0, seed=0,
                       multipath="flow"),
    )
    return simulation, simulation.run()


def _case_ring_multipath_packet():
    simulation = _ring(
        HopNormalizedMetric(),
        ScenarioConfig(duration_s=60.0, warmup_s=10.0, seed=0,
                       multipath="packet"),
    )
    return simulation, simulation.run()


def _case_ring_errors_flow_control():
    simulation = _ring(
        DelayMetric(),
        ScenarioConfig(duration_s=60.0, warmup_s=10.0, seed=2,
                       line_error_rate=0.01, flow_control_window=8),
    )
    return simulation, simulation.run()


def _case_failure_recovery():
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=90.0, warmup_s=10.0, seed=5),
    )
    bridge = built.bridge_a[0].link_id
    simulation.fail_circuit_at(bridge, 30.0)
    simulation.restore_circuit_at(bridge, 60.0)
    return simulation, simulation.run()


def _case_stuck_node_failure_recovery():
    # W0 (node 0) is the west end of bridge A: its control plane freezes
    # across the bridge's failure and recovery.  The load is heavy
    # enough for the bridge's measured delay to move its HN-SPF cost.
    built = build_two_region_network(nodes_per_region=4)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=130_000.0
    )
    bridge = built.bridge_a[0].link_id
    plan = FaultPlan(
        events=(
            FaultEvent(at_s=35.0, action="fail-circuit", link_id=bridge),
            FaultEvent(at_s=55.0, action="restore-circuit", link_id=bridge),
        ),
        adversarial=(
            StuckNode(node_id=built.west_ids[0], start_s=25.0, until_s=70.0),
        ),
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=100.0, warmup_s=10.0, seed=4, faults=plan),
    )
    return simulation, simulation.run()


CASES: Dict[str, Callable] = {
    "arpanet-aug87": _case_arpanet_aug87,
    "two-region-hnspf": _case_two_region_hnspf,
    "ring-multipath-flow": _case_ring_multipath_flow,
    "ring-multipath-packet": _case_ring_multipath_packet,
    "ring-errors-flow-control": _case_ring_errors_flow_control,
    "failure-recovery": _case_failure_recovery,
    "stuck-node-failure-recovery": _case_stuck_node_failure_recovery,
}


def run_case(name: str) -> Dict:
    """Run one case, returning its comparable snapshot dict."""
    simulation, report = CASES[name]()
    digest = hashlib.sha256()
    for when, link_id, cost in simulation.stats.cost_history:
        digest.update(f"{when!r}:{link_id}:{cost};".encode())
    return {
        "report": dataclasses.asdict(report),
        "cost_history_sha256": digest.hexdigest(),
        "cost_history_len": len(simulation.stats.cost_history),
    }
