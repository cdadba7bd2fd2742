"""Canned scenarios: the paper's study configurations, ready to run.

Each scenario bundles a topology, metric and traffic matrix; the run
itself is shaped by a :class:`~repro.sim.network_sim.ScenarioConfig`
alone.  They are the single source of truth shared by the experiment
harness, the CLI (``python -m repro simulate --scenario``) and
downstream users who want "the paper's setup" in one call:

>>> from repro.sim import ScenarioConfig
>>> from repro.sim.scenarios import build_scenario
>>> config = ScenarioConfig(duration_s=60.0, warmup_s=10.0)
>>> sim = build_scenario("aug87", config)
>>> report = sim.run()
>>> report.metric_name
'HN-SPF'
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.metrics import DelayMetric, HopNormalizedMetric
from repro.routing.bellman_ford import QueueLengthMetric
from repro.sim.network_sim import NetworkSimulation, ScenarioConfig
from repro.topology import (
    build_arpanet_1987,
    build_milnet_1987,
    build_two_region_network,
)
from repro.topology.generators import (
    build_grid_network,
    build_random_network,
)
from repro.topology.linetypes import line_type
from repro.topology.arpanet import site_weights
from repro.topology.milnet import milnet_site_weights
from repro.traffic import TrafficMatrix

#: Traffic totals from Table 1 (b/s).
MAY_1987_BPS = 366_260.0
AUG_1987_BPS = 413_990.0

#: Calibrated MILNET-like peak loads (see benchmarks/test_bench_milnet).
MILNET_DSPF_BPS = 120_000.0
MILNET_HNSPF_BPS = 136_000.0


def _may87(config: ScenarioConfig):
    network = build_arpanet_1987()
    traffic = TrafficMatrix.gravity(
        network, MAY_1987_BPS, weights=site_weights()
    )
    return NetworkSimulation(network, DelayMetric(), traffic, config)


def _aug87(config: ScenarioConfig):
    network = build_arpanet_1987()
    traffic = TrafficMatrix.gravity(
        network, AUG_1987_BPS, weights=site_weights()
    )
    return NetworkSimulation(
        network, HopNormalizedMetric(), traffic, config
    )


def _arpanet_1969(config: ScenarioConfig):
    network = build_arpanet_1987()
    traffic = TrafficMatrix.gravity(
        network, MAY_1987_BPS, weights=site_weights()
    )
    return NetworkSimulation(network, QueueLengthMetric(), traffic, config)


def _milnet_dspf(config: ScenarioConfig):
    network = build_milnet_1987()
    traffic = TrafficMatrix.gravity(
        network, MILNET_DSPF_BPS, weights=milnet_site_weights()
    )
    return NetworkSimulation(network, DelayMetric(), traffic, config)


def _milnet_hnspf(config: ScenarioConfig):
    network = build_milnet_1987()
    traffic = TrafficMatrix.gravity(
        network, MILNET_HNSPF_BPS, weights=milnet_site_weights()
    )
    return NetworkSimulation(
        network, HopNormalizedMetric(), traffic, config
    )


# ----------------------------------------------------------------------
# Generated large-network scenarios (the ROADMAP's "as many scenarios as
# we can imagine" direction).  Traffic is a sparse random-pairs matrix --
# a dense matrix at 512 nodes would mean 262k sources.  The random
# networks run on T1 trunks: at hundreds of links, flooding alone (one
# update packet per link per flood) outgrows a 56 kb/s control channel,
# which is exactly why the late-80s networks upgraded.
# ----------------------------------------------------------------------
def _grid64(config: ScenarioConfig):
    network = build_grid_network(8, 8)
    traffic = TrafficMatrix.random_pairs(
        network, 250_000.0, pairs=192, seed=1
    )
    return NetworkSimulation(
        network, HopNormalizedMetric(), traffic, config
    )


def _rand256(config: ScenarioConfig):
    network = build_random_network(
        256, extra_circuits=64, seed=11, line=line_type("T1-T")
    )
    traffic = TrafficMatrix.random_pairs(
        network, 4_000_000.0, pairs=512, seed=11
    )
    return NetworkSimulation(
        network, HopNormalizedMetric(), traffic, config
    )


def _rand512(config: ScenarioConfig):
    network = build_random_network(
        512, extra_circuits=128, seed=17, line=line_type("T1-T")
    )
    traffic = TrafficMatrix.random_pairs(
        network, 8_000_000.0, pairs=1024, seed=17
    )
    return NetworkSimulation(
        network, HopNormalizedMetric(), traffic, config
    )


def _two_region_dspf(config: ScenarioConfig):
    built = build_two_region_network(nodes_per_region=4)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=90_000.0
    )
    return NetworkSimulation(built.network, DelayMetric(), traffic, config)


def _two_region_hnspf(config: ScenarioConfig):
    built = build_two_region_network(nodes_per_region=4)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=90_000.0
    )
    return NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic, config
    )


def _poison_exit(config: ScenarioConfig):
    """Test-only: kills the hosting process outright (a worker crash).

    ``os._exit`` skips every handler, so the parent sees a dead pool
    process -- the failure ``run_many`` must charge to this one spec
    although the pool cannot say which run killed it.
    """
    import os as _os

    _os._exit(13)


_BUILDERS: Dict[str, Callable] = {
    "may87": _may87,
    "aug87": _aug87,
    "arpanet-1969": _arpanet_1969,
    "milnet-dspf": _milnet_dspf,
    "milnet-hnspf": _milnet_hnspf,
    "two-region-dspf": _two_region_dspf,
    "two-region-hnspf": _two_region_hnspf,
    "grid64": _grid64,
    "rand256": _rand256,
    "rand512": _rand512,
    # The underscore-prefixed entry is a test-only worker crash for the
    # parallel harness.  It must live in this module-level registry --
    # pool workers rebuild scenarios by name from a fresh import -- but
    # scenario_names() hides it from users and the CLI.  A run that
    # raises needs no hook: an unknown name fails inside run_spec.
    "_poison-exit": _poison_exit,
}


def scenario_names() -> list:
    """Names accepted by :func:`build_scenario` (test hooks excluded)."""
    return sorted(name for name in _BUILDERS if not name.startswith("_"))


def build_scenario(name: str, config: Optional[ScenarioConfig] = None):
    """Build a ready-to-run simulation for a named scenario.

    ``name`` is one of :func:`scenario_names`; ``config`` shapes the run
    (``None`` is ``ScenarioConfig()``).
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
    return builder(config)
