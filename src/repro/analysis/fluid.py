"""Network-wide fluid equilibrium model (extension).

The paper's section 5 sidesteps simultaneous multi-link equilibrium:
*"any exact determination of equilibrium would have to consider this
interplay between the links ... simultaneously for all links, clearly a
task of considerable complexity"* -- and models a single "average link"
instead.  This module builds the thing they sidestepped: a fluid
(flow-level) iteration of the whole network, with **every** link's cost
fed back each routing period.

One round =

1. every PSN computes SPF routes from the current global cost table,
2. every demand is routed along its single path, accumulating per-link
   load,
3. every link's utilization feeds the *operational* metric pipeline
   (averaging filter, movement limits, clipping) to produce next
   period's cost.

No packets, no queues: ~1000x faster than the DES, which makes it ideal
for long stability studies.  It reproduces the paper's claims at network
scale: D-SPF's costs keep churning under heavy load while HN-SPF's
settle, and the average-link model's equilibrium utilization is a good
predictor of the fluid model's mean.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.metrics.base import LinkMetric
from repro.metrics.queueing import utilization_to_delay_s_array
from repro.routing.spf import CostTable, SpfTree
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix


@dataclass
class FluidRound:
    """Aggregate state of the network after one routing period."""

    round_index: int
    mean_utilization: float
    max_utilization: float
    #: Fraction of links whose reported cost changed this round.
    churn: float
    #: Total demand routed over links already at capacity (b/s) -- the
    #: fluid proxy for congestion drops.
    overload_bps: float
    #: Mean reported cost in units.
    mean_cost: float


@dataclass
class FluidTrace:
    """The round-by-round trajectory of a fluid run."""

    rounds: List[FluidRound] = field(default_factory=list)

    def tail_churn(self, tail: int = 5) -> float:
        """Mean cost-churn over the last ``tail`` rounds (0 = settled)."""
        window = self.rounds[-tail:]
        return statistics.mean(r.churn for r in window)

    def tail_overload(self, tail: int = 5) -> float:
        window = self.rounds[-tail:]
        return statistics.mean(r.overload_bps for r in window)

    def tail_mean_utilization(self, tail: int = 5) -> float:
        window = self.rounds[-tail:]
        return statistics.mean(r.mean_utilization for r in window)

    def settled(self, tail: int = 5, churn_tolerance: float = 0.05) -> bool:
        """Whether the network's costs have (essentially) stopped moving."""
        return self.tail_churn(tail) <= churn_tolerance


class FluidNetworkModel:
    """Flow-level iteration of the full SPF/metric feedback loop.

    Parameters
    ----------
    network, metric, traffic:
        The modelled network, the metric in force, and the offered load.
    """

    def __init__(
        self,
        network: Network,
        metric: LinkMetric,
        traffic: TrafficMatrix,
    ) -> None:
        self.network = network
        self.metric = metric
        self.traffic = traffic
        self.costs = CostTable(
            [float(metric.initial_cost(link)) for link in network.links]
        )
        # Per-source SPF trees persist across rounds: each round applies
        # the (usually small) cost diff to every tree with one batched
        # update_costs() repair instead of rebuilding from scratch.
        # ``_tree_costs`` snapshots the table the trees currently
        # reflect; ``_tree_topology`` forces a rebuild after any link
        # up/down flip, which incremental repair does not model.
        self._trees: Optional[Dict[int, SpfTree]] = None
        self._tree_costs: Optional[List[float]] = None
        self._tree_topology: int = -1
        # Every link's metric state as one struct of arrays: the metric's
        # transform sweeps all links in a handful of numpy passes per
        # round, bit-identical per link to the PSN's scalar path.
        self._links = list(network.links)
        self._capacity = np.array([l.bandwidth_bps for l in self._links])
        self._propagation = np.array(
            [l.propagation_s for l in self._links]
        )
        self._vector_state = metric.create_vector_state(self._links)

    # ------------------------------------------------------------------
    # One routing period
    # ------------------------------------------------------------------
    def route_demands(self) -> Dict[int, float]:
        """Route every demand on current costs; return per-link load.

        The per-source trees are *carried* between rounds: the current
        cost table is diffed against the one the trees last saw and the
        changes are applied to every tree in one batched
        :meth:`~repro.routing.spf.SpfTree.update_costs` pass.  The
        canonical tie-break makes repaired and rebuilt trees bit
        identical, so this is pure speed.  Trees are rebuilt from
        scratch only when the topology itself changed (a link flipped
        up or down).
        """
        sources = {src for (src, _dst) in self.traffic.demands}
        trees = self._trees
        version = self.network.topology_version
        if (
            trees is None
            or self._tree_topology != version
            or set(trees) != sources
        ):
            trees = {
                src: SpfTree(self.network, src, self.costs.copy())
                for src in sources
            }
            self._trees = trees
            self._tree_topology = version
        else:
            snapshot = self._tree_costs
            current = self.costs.costs
            changes = [
                (link_id, cost)
                for link_id, cost in enumerate(current)
                if cost != snapshot[link_id]
            ]
            if changes:
                for tree in trees.values():
                    tree.update_costs(changes)
        self._tree_costs = list(self.costs.costs)
        load: Dict[int, float] = {
            link.link_id: 0.0 for link in self.network.links
        }
        for (src, dst), bps in self.traffic.demands.items():
            for link_id in trees[src].path_links(dst):
                load[link_id] += bps
        return load

    def step(self, round_index: int = 0) -> FluidRound:
        """Run one routing period; returns the round's aggregates."""
        load = self.route_demands()
        load_arr = np.array([load[l.link_id] for l in self._links])
        utilization = np.minimum(load_arr / self._capacity, 1.0)
        overload = float(np.maximum(load_arr - self._capacity, 0.0).sum())
        delays = utilization_to_delay_s_array(
            utilization, self._capacity, propagations_s=self._propagation,
        )
        new_costs = self.metric.measured_costs(self._vector_state, delays)
        old_costs = np.asarray(self.costs.costs, dtype=float)
        changed_idx = np.nonzero(new_costs != old_costs)[0]
        for i in changed_idx:
            self.costs[self._links[i].link_id] = float(new_costs[i])
        return FluidRound(
            round_index=round_index,
            mean_utilization=float(utilization.mean()),
            max_utilization=float(utilization.max()),
            churn=len(changed_idx) / len(self._links),
            overload_bps=overload,
            mean_cost=float(np.mean(self.costs.costs)),
        )

    def run(self, rounds: int = 30) -> FluidTrace:
        """Iterate ``rounds`` routing periods."""
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        trace = FluidTrace()
        for index in range(rounds):
            trace.rounds.append(self.step(index))
        return trace

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def link_utilization(self, link_id: int) -> float:
        """Utilization of one link under the *current* routes."""
        load = self.route_demands()
        link = self.network.link(link_id)
        return min(load[link_id] / link.bandwidth_bps, 1.0)
