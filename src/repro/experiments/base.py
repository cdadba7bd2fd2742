"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict

from repro.analysis import build_response_map, reference_link
from repro.analysis.response_map import NetworkResponseMap
from repro.sim.scenarios import MAY_1987_BPS
from repro.topology import build_arpanet_1987
from repro.topology.arpanet import site_weights
from repro.topology.graph import Link, Network
from repro.traffic import TrafficMatrix


@dataclass
class ExperimentResult:
    """What an experiment produces: a rendered report plus raw data."""

    experiment_id: str
    title: str
    rendered: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.rendered


def arpanet_traffic(total_bps: float = MAY_1987_BPS) -> TrafficMatrix:
    """The synthetic peak-hour gravity matrix on the embedded topology."""
    return TrafficMatrix.gravity(
        build_arpanet_1987(), total_bps, weights=site_weights()
    )


@lru_cache(maxsize=1)
def _cached_response_map() -> NetworkResponseMap:
    network = build_arpanet_1987()
    traffic = TrafficMatrix.gravity(
        network, MAY_1987_BPS, weights=site_weights()
    )
    return build_response_map(network, traffic)


def arpanet_response_map() -> NetworkResponseMap:
    """The July-1987 Network Response Map (cached; it is deterministic)."""
    return _cached_response_map()


def equilibrium_reference_link() -> Link:
    """The 56 kb/s short-haul link the equilibrium figures study.

    Propagation is kept negligible so the idle D-SPF cost equals the
    paper's 2-unit bias (Figure 4 normalizes by the bias, not by a
    propagation-inflated idle value).
    """
    return reference_link("56K-T", propagation_s=0.001)


def fresh_arpanet() -> Network:
    """A new topology instance (simulations mutate link state)."""
    return build_arpanet_1987()
