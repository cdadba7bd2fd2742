"""Packet-level network simulation.

* :class:`~repro.sim.network_sim.NetworkSimulation` -- a topology + metric
  + traffic matrix, running as a network of PSNs,
* :class:`~repro.sim.network_sim.ScenarioConfig` -- run parameters,
* :class:`~repro.sim.stats.StatsCollector` /
  :class:`~repro.sim.stats.SimulationReport` -- measurement and the
  Table-1-style summary,
* :func:`~repro.sim.parallel.run_many` / :class:`~repro.sim.parallel.RunSpec`
  -- deterministic fan-out of independent runs across processes.
"""

from repro._lazy import lazy_exports
from repro.obs.telemetry import RunTelemetry, merge_telemetry
from repro.sim.legacy_sim import BellmanFordSimulation
from repro.sim.network_sim import NetworkSimulation, ScenarioConfig
from repro.sim.scenarios import build_scenario, scenario_names
from repro.sim.stats import DeliveryTimeline, SimulationReport, StatsCollector

# A single run never fans out: the process pool (concurrent.futures,
# multiprocessing) loads when first asked for.
__getattr__ = lazy_exports(__name__, {
    "repro.sim.parallel": (
        "BatchResult",
        "RunFailedError",
        "RunFailure",
        "RunSpec",
        "combined_telemetry",
        "replicate",
        "replication_seeds",
        "run_many",
        "run_spec",
    ),
})

__all__ = [
    "BatchResult",
    "BellmanFordSimulation",
    "DeliveryTimeline",
    "NetworkSimulation",
    "RunFailedError",
    "RunFailure",
    "RunSpec",
    "RunTelemetry",
    "ScenarioConfig",
    "SimulationReport",
    "StatsCollector",
    "build_scenario",
    "combined_telemetry",
    "merge_telemetry",
    "replicate",
    "replication_seeds",
    "run_many",
    "run_spec",
    "scenario_names",
]
