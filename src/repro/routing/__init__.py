"""Route computation and dissemination.

* :class:`~repro.routing.spf.SpfTree` -- Dijkstra SPF with one
  incremental repair (a batch of cost changes per pass), the route
  computation both D-SPF and HN-SPF share,
* :class:`~repro.routing.spf.CostTable` -- a node's view of link costs,
* :class:`~repro.routing.flooding.FloodingState` -- sequence-numbered
  routing-update flooding (Rosen's updating protocol, simplified),
* :class:`~repro.routing.bellman_ford.BellmanFordNode` -- the original
  1969 distributed Bellman-Ford algorithm with the instantaneous
  queue-length metric, kept as a historical baseline,
* :class:`~repro.routing.spf_cache.SpfCache` -- network-wide sharing of
  Dijkstra trees, plus counted next-hop forwarding tables whose entries
  resolve from the tree on first lookup,
* :class:`~repro.routing.defense.NodeDefense` -- Byzantine-update
  screening, neighbour quarantine and purge-and-reflood
  self-stabilization (the post-1980 ARPANET hardening).
"""

from repro.routing.bellman_ford import (
    BellmanFordNode,
    has_routing_loop,
    queue_length_metric,
)
from repro.routing.defense import (
    REJECT_REASONS,
    DefenseConfig,
    DefensePolicy,
    DefenseStats,
    NodeDefense,
)
from repro.routing.flooding import FloodingState, FloodingStats, RoutingUpdate
from repro.routing.multipath import MultipathRouter
from repro.routing.spf import UNREACHABLE, CostTable, SpfStats, SpfTree
from repro.routing.spf_cache import (
    SpfCache,
    SpfCacheStats,
    compile_forwarding_table,
)

__all__ = [
    "BellmanFordNode",
    "CostTable",
    "DefenseConfig",
    "DefensePolicy",
    "DefenseStats",
    "FloodingState",
    "FloodingStats",
    "MultipathRouter",
    "NodeDefense",
    "REJECT_REASONS",
    "RoutingUpdate",
    "SpfCache",
    "SpfCacheStats",
    "SpfStats",
    "SpfTree",
    "UNREACHABLE",
    "compile_forwarding_table",
    "has_routing_loop",
    "queue_length_metric",
]
