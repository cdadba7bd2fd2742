"""Packet-level network simulation.

* :class:`~repro.sim.network_sim.NetworkSimulation` -- a topology + metric
  + traffic matrix, running as a network of PSNs,
* :class:`~repro.sim.network_sim.ScenarioConfig` -- run parameters,
* :class:`~repro.sim.stats.StatsCollector` /
  :class:`~repro.sim.stats.SimulationReport` -- measurement and the
  Table-1-style summary,
* :func:`~repro.sim.parallel.run_many` / :class:`~repro.sim.parallel.RunSpec`
  -- an ordered, fail-fast map of independent runs over worker processes.
"""

from repro._lazy import lazy_exports
from repro.obs.telemetry import RunTelemetry, merge_telemetry
from repro.sim.network_sim import NetworkSimulation, ScenarioConfig
from repro.sim.scenarios import build_scenario, scenario_names
from repro.sim.stats import DeliveryTimeline, SimulationReport, StatsCollector

# A single run never fans out: the process pool (concurrent.futures,
# multiprocessing) loads when first asked for.
__getattr__ = lazy_exports(__name__, {
    "repro.sim.parallel": (
        "RunFailedError",
        "RunSpec",
        "combined_telemetry",
        "replicate",
        "replication_seeds",
        "run_many",
        "run_spec",
    ),
})

__all__ = [
    "DeliveryTimeline",
    "NetworkSimulation",
    "RunFailedError",
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
