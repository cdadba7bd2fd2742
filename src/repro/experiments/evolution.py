"""Extension experiment: three generations of ARPANET routing.

Section 2's lineage -- the 1969 distributed Bellman-Ford, the 1979
SPF/delay metric, and the 1987 revision -- raced on the same topology,
traffic and seed, with a mid-run circuit failure.  See
``benchmarks/test_bench_evolution.py`` for the asserted claims and the
fidelity caveat about BF's surprisingly competitive steady state.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, fresh_arpanet
from repro.metrics import DelayMetric, HopNormalizedMetric
from repro.report import ascii_table
from repro.routing import QueueLengthMetric
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.sim.scenarios import MAY_1987_BPS
from repro.topology.arpanet import site_weights
from repro.traffic import TrafficMatrix

TITLE = "Extension: three generations of ARPANET routing"


def run(fast: bool = False) -> ExperimentResult:
    duration = 200.0 if fast else 360.0
    warmup = 40.0 if fast else 60.0
    fail_at = duration * 0.55

    results = {}
    for metric in (QueueLengthMetric(), DelayMetric(), HopNormalizedMetric()):
        network = fresh_arpanet()
        traffic = TrafficMatrix.gravity(
            network, MAY_1987_BPS, weights=site_weights()
        )
        config = ScenarioConfig(duration_s=duration, warmup_s=warmup,
                                seed=3)
        failing = network.links_between(
            network.node_by_name("UTAH").node_id,
            network.node_by_name("GWC").node_id,
        )[0].link_id
        sim = NetworkSimulation(network, metric, traffic, config)
        sim.fail_circuit_at(failing, at_s=fail_at)
        report = sim.run()
        results[metric.name] = {
            "report": report,
            "hop_limit_drops": sim.stats.hop_limit_drops,
            "unreachable_drops": sim.stats.unreachable_drops,
        }
    rows = [
        (
            label,
            data["report"].internode_traffic_kbps,
            data["report"].round_trip_delay_ms,
            data["report"].path_ratio,
            data["report"].congestion_drops,
            data["hop_limit_drops"],
            data["report"].updates_per_trunk_s,
        )
        for label, data in results.items()
    ]
    table = ascii_table(
        ["generation", "carried (kb/s)", "RTT (ms)", "path ratio",
         "congestion drops", "loop (hop-limit) drops",
         "update pkts/trunk/s"],
        rows,
        title=f"same topology/traffic/seed; UTAH-GWC circuit fails at "
              f"t={fail_at:.0f}s",
    )
    return ExperimentResult(
        experiment_id="evolution",
        title=TITLE,
        rendered=table,
        data=results,
    )
