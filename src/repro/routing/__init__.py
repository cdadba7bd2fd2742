"""Route computation and dissemination.

* :class:`~repro.routing.spf.SpfTree` -- Dijkstra SPF with one
  incremental repair (a batch of cost changes per pass), the route
  computation both D-SPF and HN-SPF share,
* :class:`~repro.routing.spf.CostTable` -- a node's view of link costs,
* :class:`~repro.routing.flooding.FloodingState` -- one PSN's
  sequence-numbered update protocol (Rosen's, simplified): acks,
  screening, re-flooding and retransmission,
* :class:`~repro.routing.bellman_ford.BellmanFordNode` -- the original
  1969 distributed Bellman-Ford algorithm with the instantaneous
  queue-length metric; under ``QueueLengthMetric`` a simulation runs it
  live in every PSN (``DistanceVectorProtocol``),
* :func:`~repro.routing.loops.find_routing_loop` -- the one forwarding-
  loop walk, over any generation's next-hop choices,
* :class:`~repro.routing.spf_cache.SpfCache` -- network-wide sharing of
  Dijkstra trees, plus counted next-hop forwarding tables whose entries
  resolve from the tree on first lookup,
* :class:`~repro.routing.defense.NodeDefense` -- Byzantine-update
  screening, strike-count neighbour quarantine and an aged purge (the
  post-1980 ARPANET hardening).
"""

from repro.routing.bellman_ford import (
    BellmanFordNode,
    QueueLengthMetric,
    queue_length_metric,
)
from repro.routing.defense import (
    REJECT_REASONS,
    DefensePolicy,
    DefenseStats,
    NodeDefense,
)
from repro.routing.flooding import FloodingState, FloodingStats, RoutingUpdate
from repro.routing.loops import find_routing_loop
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
    "DefensePolicy",
    "DefenseStats",
    "FloodingState",
    "FloodingStats",
    "MultipathRouter",
    "NodeDefense",
    "QueueLengthMetric",
    "REJECT_REASONS",
    "RoutingUpdate",
    "SpfCache",
    "SpfCacheStats",
    "SpfStats",
    "SpfTree",
    "UNREACHABLE",
    "compile_forwarding_table",
    "find_routing_loop",
    "queue_length_metric",
]
