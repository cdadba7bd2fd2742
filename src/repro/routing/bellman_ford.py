"""The original (1969) ARPANET routing algorithm.

Section 2.1 of the paper: a *distributed Bellman-Ford* shortest-path
computation.  Each node keeps a table of estimated distances to every
destination, exchanges the table with its neighbours every 2/3 second, and
takes, per destination, the minimum over neighbours of (distance via that
neighbour + local link metric).  The link metric was *"simply the
instantaneous queue length at the moment of updating plus a fixed
constant"*.

The paper lists its failure modes -- a volatile instantaneous metric,
persistent loops while the computation converges, and routing oscillation
-- which our simulation and tests reproduce.  This module holds the pure
distance-vector logic; the periodic exchange runs in the DES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.topology.graph import Network

#: The "fixed constant" added to the instantaneous queue length.  Helps
#: damp (but does not eliminate) oscillation; see the paper's section 2.1.
QUEUE_METRIC_CONSTANT = 4.0

#: Distances above this are treated as unreachable (poor-man's counting-
#: to-infinity bound, as in early distance-vector protocols).
INFINITY_THRESHOLD = 1000.0


def queue_length_metric(queue_length: int) -> float:
    """The 1969 link metric: instantaneous queue length + constant."""
    if queue_length < 0:
        raise ValueError(f"queue length must be >= 0, got {queue_length}")
    return float(queue_length) + QUEUE_METRIC_CONSTANT


@dataclass
class DistanceTable:
    """One node's distance estimates and next hops."""

    node_id: int
    distance: Dict[int, float]
    next_hop: Dict[int, Optional[int]]  # destination -> neighbour node id


class BellmanFordNode:
    """Distance-vector state machine for one PSN."""

    def __init__(self, network: Network, node_id: int) -> None:
        self.network = network
        self.node_id = node_id
        self.table = DistanceTable(
            node_id=node_id,
            distance={n: math.inf for n in network.nodes},
            next_hop={n: None for n in network.nodes},
        )
        self.table.distance[node_id] = 0.0
        #: Latest received neighbour tables: neighbour -> {dest: distance}.
        self._neighbour_tables: Dict[int, Dict[int, float]] = {}

    def snapshot(self) -> Dict[int, float]:
        """The distance vector this node would send to its neighbours."""
        return dict(self.table.distance)

    def receive_vector(self, neighbour: int, vector: Dict[int, float]) -> None:
        """Store a neighbour's advertised distance vector."""
        if neighbour == self.node_id:
            raise ValueError("node received its own vector")
        self._neighbour_tables[neighbour] = dict(vector)

    def recompute(self, link_metrics: Dict[int, float]) -> bool:
        """Periodic re-minimization over all neighbours.

        Parameters
        ----------
        link_metrics:
            Current metric per *neighbour node id* (queue length +
            constant of the link toward that neighbour).

        Returns
        -------
        bool
            Whether any distance or next hop changed.
        """
        changed = False
        for dest in self.network.nodes:
            if dest == self.node_id:
                continue
            best = math.inf
            best_neighbour: Optional[int] = None
            for neighbour, vector in sorted(self._neighbour_tables.items()):
                metric = link_metrics.get(neighbour)
                if metric is None:
                    continue
                via = metric + vector.get(dest, math.inf)
                if via < best:
                    best = via
                    best_neighbour = neighbour
            if best > INFINITY_THRESHOLD:
                best = math.inf
                best_neighbour = None
            if (best != self.table.distance[dest]
                    or best_neighbour != self.table.next_hop[dest]):
                changed = True
            self.table.distance[dest] = best
            self.table.next_hop[dest] = best_neighbour
        return changed

    def next_hop(self, dest: int) -> Optional[int]:
        """Forwarding decision: neighbour node id toward ``dest``."""
        if dest == self.node_id:
            return None
        return self.table.next_hop.get(dest)


def has_routing_loop(
    nodes: Dict[int, "BellmanFordNode"], dest: int
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Detect a forwarding loop toward ``dest`` across all nodes.

    Follows next hops from every source; returns ``(True, cycle)`` with
    the node cycle if any forwarding walk revisits a node before reaching
    the destination.  This is the "persistent loops" failure mode of the
    original algorithm.
    """
    for start in nodes:
        seen: Dict[int, int] = {}
        walk = []
        node = start
        while node != dest and node is not None:
            if node in seen:
                cycle = tuple(walk[seen[node]:])
                return True, cycle
            seen[node] = len(walk)
            walk.append(node)
            node = nodes[node].next_hop(dest)
    return False, None
