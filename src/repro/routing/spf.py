"""Shortest Path First route computation.

Each PSN knows the full topology and a cost for every link, and builds a
shortest-path tree rooted at itself with Dijkstra's algorithm [Dijkstra
1959].  The ARPANET implementation is an *incremental* SPF: when a routing
update changes one link's cost, the PSN adjusts only the affected part of
the tree -- e.g. *"if a routing update reports an increase in the cost for
a link not in the tree, the algorithm does not recompute any part of the
tree"*.

:class:`SpfTree` has two algorithms: the full computation, and one
incremental repair, :meth:`SpfTree.update_costs`, which absorbs a whole
burst of cost changes in a single pass (a single change is a batch of
one).  An increase on a link not in the tree costs no work at all.  The
tree counts how much work each repair costs (the Table-1 "PSN CPU
utilization" proxy), and the repair is property-tested against full
recomputation.

**Canonical tie-breaking.**  Where several equal-cost shortest paths
exist, both algorithms resolve the tie the same way: each node's parent
is the *smallest link id* among its tight in-links (links ``u -> v``
with ``dist[u] + cost == dist[v]``).  Distances are a pure function of
the cost table, so with this rule the whole tree is too: repairing in
batches of any size, or recomputing from scratch, yields bit-identical
trees.

**Flat, shared state.**  A tree is two lists indexed by node id --
``dist`` and ``parent_link`` -- since :meth:`Network.add_node
<repro.topology.graph.Network.add_node>` hands out dense ids.  The
repair walks subtrees and their boundaries over the network's own
``out_adjacency`` / ``in_adjacency`` lists, which every tree of the
network reads; a tree keeps no adjacency of its own.  Next hops are not
part of the tree: :mod:`repro.routing.spf_cache` resolves them from
``parent_link`` when a destination is first looked up.

Costs are floats so the analysis package can sweep costs in fractional
hops; the operational simulator feeds integer routing units.  Down links
have cost ``inf``.  Costs, and hence distances, are never negative (or
NaN), so ``== UNREACHABLE`` is the test for "no path".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Set

from repro.topology.graph import Network

#: Cost of an unusable (down) link.
UNREACHABLE = math.inf


@dataclass
class SpfStats:
    """Work counters for route computation."""

    full_computations: int = 0
    no_op_updates: int = 0
    nodes_scanned: int = 0
    #: Repair passes that moved the tree (see :meth:`SpfTree.update_costs`).
    batched_passes: int = 0
    #: Individual link changes absorbed by repair calls.
    batched_changes: int = 0


@dataclass
class CostTable:
    """A node's view of every link's cost, indexed by link id.

    Write through ``table[link_id] = cost``, which rejects negative and
    NaN costs.
    """

    costs: List[float]

    @classmethod
    def uniform(cls, network: Network, cost: float) -> "CostTable":
        return cls([cost] * len(network.links))

    @classmethod
    def from_metric(cls, network: Network, metric) -> "CostTable":
        """Initialize from a metric's idle costs (steady light load)."""
        return cls([metric.idle_cost(link) for link in network.links])

    def __getitem__(self, link_id: int) -> float:
        return self.costs[link_id]

    def __setitem__(self, link_id: int, cost: float) -> None:
        if not cost >= 0:
            raise ValueError(f"link cost must be >= 0, got {cost}")
        self.costs[link_id] = cost

    def copy(self) -> "CostTable":
        return CostTable(list(self.costs))


class SpfTree:
    """A shortest-path tree rooted at one PSN, incrementally maintained.

    Parameters
    ----------
    network:
        The (shared, read-only) topology.
    root:
        Node id of the PSN owning this tree.
    costs:
        The node's cost table.  The tree keeps a reference: change it
        through :meth:`update_costs` so the tree stays consistent.
    """

    def __init__(self, network: Network, root: int, costs: CostTable) -> None:
        if root not in network.nodes:
            raise ValueError(f"unknown root {root}")
        self.network = network
        self.root = root
        self.costs = costs
        self.stats = SpfStats()
        #: Distance from the root, per node id (``UNREACHABLE`` if none).
        self.dist: List[float] = []
        #: link id of the tree edge *into* each node, per node id (None
        #: for the root and unreachable nodes).
        self.parent_link: List[Optional[int]] = []
        self.recompute()

    # ------------------------------------------------------------------
    # Full computation
    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Full Dijkstra from the root."""
        self.stats.full_computations += 1
        size = len(self.network.nodes)
        dist = self.dist = [UNREACHABLE] * size
        parent = self.parent_link = [None] * size
        costs = self.costs.costs
        out_links = self.network.out_links
        heappush, heappop = heapq.heappush, heapq.heappop
        next_seq = count(1).__next__
        root = self.root
        dist[root] = 0.0
        heap: List = [(0.0, 0, root)]
        scanned = 0
        while heap:
            # Every push strictly lowers its node's distance, so only a
            # node's last entry passes this test: each node settles once.
            d, _seq, node = heappop(heap)
            if d > dist[node]:
                continue
            scanned += 1
            for link in out_links(node):
                cost = costs[link.link_id]
                if cost == UNREACHABLE:
                    continue
                candidate = d + cost
                dst = link.dst
                if candidate < dist[dst]:
                    dist[dst] = candidate
                    parent[dst] = link.link_id
                    heappush(heap, (candidate, next_seq(), dst))
                elif candidate == dist[dst]:
                    # Canonical tie-break: smallest tight link id.  Every
                    # settled node relaxes its out-links, so every tight
                    # in-link of every node gets compared here.
                    current = parent[dst]
                    if current is not None and link.link_id < current:
                        parent[dst] = link.link_id
        self.stats.nodes_scanned += scanned

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------
    def update_cost(self, link_id: int, new_cost: float) -> bool:
        """Apply one link-cost change: :meth:`update_costs` on a batch of
        one."""
        return self.update_costs(((link_id, new_cost),))

    def update_costs(self, changes) -> bool:
        """Apply many link-cost changes in **one** repair pass.

        ``changes`` is an iterable of ``(link_id, new_cost)`` pairs (the
        last write wins when a link appears twice).  Semantically this is
        a batched routing interval: the tree afterwards is **bit
        identical** to a full :meth:`recompute` on the final costs --
        both resolve equal-cost ties with the canonical smallest-link-id
        rule (see the module docstring), and this equivalence is
        property-tested.

        The classic incremental cases, for a whole batch at once:

        * cost increase on a link not in the tree: **no work at all**
          (*"the algorithm does not recompute any part of the tree"*),
        * cost increase on a tree link: the link's subtree is detached;
          all such subtrees form one *union*, re-seeded across its
          boundary,
        * cost decrease: the link is relaxed directly.

        A single Dijkstra scan then settles the affected region: one scan
        however many links changed, instead of one scan per link.

        Parents come out canonical (smallest tight in-link id) with no
        final sweep, because every tight in-link of a node whose state
        moved is compared while the pass runs:

        * a node whose distance *fell* cannot be tight through a source
          whose distance did not change -- the old tree's triangle
          inequality rules it out unless that link's own cost fell, and
          decreased links are tie-compared in the direct-relaxation
          loop.  Every other tight in-link comes from a source that is
          popped at its final distance and tie-compared inline;
        * a detached node sees every non-detached tight in-link at
          boundary seeding, which walks in-links in ascending id order
          with a strict ``<`` (so the first of equal candidates, the
          smallest id, wins), and every detached tight in-link when that
          link's source is popped;
        * a node whose distance did not change keeps a still-tight
          parent (losing it would have detached the node), and any
          in-link that newly became tight has a popped source or a
          decreased cost, so it was compared too.

        Returns ``True`` when the tree was adjusted and ``False`` for a
        no-op, so callers can keep routing state derived from the tree
        (e.g. a forwarding table) across no-op batches.
        """
        effective: Dict[int, float] = {}
        for link_id, new_cost in changes:
            if not new_cost >= 0:
                raise ValueError(f"link cost must be >= 0, got {new_cost}")
            effective[link_id] = new_cost

        network = self.network
        links = network.links
        costs = self.costs.costs
        dist = self.dist
        parent = self.parent_link
        decreased: List[int] = []
        detach_roots: List[int] = []
        applied = 0
        for link_id, new_cost in effective.items():
            old_cost = costs[link_id]
            if new_cost == old_cost:
                continue
            costs[link_id] = new_cost  # validated on entry above
            applied += 1
            if new_cost < old_cost:
                decreased.append(link_id)
            else:
                dst = links[link_id].dst
                if parent[dst] == link_id:
                    detach_roots.append(dst)
                # Increases on non-tree links need no work at all.

        if applied == 0:
            self.stats.no_op_updates += 1
            return False
        self.stats.batched_changes += applied

        # Detach the union of the subtrees below every increased tree
        # link; everything outside keeps a still-achievable distance.
        # Children are found through the network's full adjacency (down
        # links included: a tree may still hang off a link that has just
        # failed) -- ``m`` hangs off ``n`` exactly when ``parent_link[m]``
        # is a link n->m -- so the walk costs O(subtree * degree), not
        # O(N).
        detached: Set[int] = set()
        if detach_roots:
            out_adjacency = network.out_adjacency
            stack = detach_roots
            while stack:
                node = stack.pop()
                if node in detached:
                    continue
                detached.add(node)
                for link in out_adjacency[node]:
                    if parent[link.dst] == link.link_id:
                        stack.append(link.dst)
        for node in detached:
            dist[node] = UNREACHABLE
            parent[node] = None

        heappush, heappop = heapq.heappush, heapq.heappop
        next_seq = count().__next__
        heap: List = []
        moved = bool(detached)

        # Re-seed detached nodes from every link crossing the boundary.
        in_adjacency = network.in_adjacency
        for node in detached:
            for link in in_adjacency[node]:
                src = link.src
                if not link.up or src in detached:
                    continue
                cost = costs[link.link_id]
                base = dist[src]
                if cost == UNREACHABLE or base == UNREACHABLE:
                    continue
                candidate = base + cost
                if candidate < dist[node]:
                    dist[node] = candidate
                    parent[node] = link.link_id
                    heappush(heap, (candidate, next_seq(), node))

        # Relax every decreased link directly.
        for link_id in decreased:
            link = links[link_id]
            base = dist[link.src]
            cost = costs[link_id]
            if base == UNREACHABLE or cost == UNREACHABLE:
                continue
            candidate = base + cost
            dst = link.dst
            if candidate < dist[dst]:
                dist[dst] = candidate
                parent[dst] = link_id
                heappush(heap, (candidate, next_seq(), dst))
                moved = True
            elif candidate == dist[dst]:
                # The decrease made this link exactly tight: the
                # canonical (min-link-id) parent may switch.
                current = parent[dst]
                if current is not None and link_id < current:
                    parent[dst] = link_id
                    moved = True

        if not heap and not moved:
            self.stats.no_op_updates += 1
            return False
        self.stats.batched_passes += 1

        # One settle pass over the whole affected region.
        out_links = network.out_links
        scanned = 0
        while heap:
            d, _seq, node = heappop(heap)
            if d > dist[node]:
                continue
            scanned += 1
            for out in out_links(node):
                cost = costs[out.link_id]
                if cost == UNREACHABLE:
                    continue
                candidate = d + cost
                dst = out.dst
                if candidate < dist[dst]:
                    dist[dst] = candidate
                    parent[dst] = out.link_id
                    heappush(heap, (candidate, next_seq(), dst))
                elif candidate == dist[dst]:
                    current = parent[dst]
                    if current is not None and out.link_id < current:
                        parent[dst] = out.link_id
        self.stats.nodes_scanned += scanned
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable(self, dest: int) -> bool:
        """Whether the root currently has any path to ``dest``."""
        return self.dist[dest] != UNREACHABLE

    def next_hop_link(self, dest: int) -> Optional[int]:
        """The outgoing link the root uses toward ``dest``.

        ``None`` for the root itself or unreachable destinations.  This is
        the single-path forwarding decision: all packets for ``dest`` leave
        on this link.
        """
        if dest == self.root or not self.reachable(dest):
            return None
        node = dest
        while True:
            link_id = self.parent_link[node]
            link = self.network.link(link_id)
            if link.src == self.root:
                return link_id
            node = link.src

    def path_links(self, dest: int) -> List[int]:
        """Tree path from the root to ``dest`` as link ids (may be [])."""
        if dest == self.root or not self.reachable(dest):
            return []
        links: List[int] = []
        node = dest
        while node != self.root:
            link_id = self.parent_link[node]
            links.append(link_id)
            node = self.network.link(link_id).src
        links.reverse()
        return links

    def path_nodes(self, dest: int) -> List[int]:
        """Tree path from the root to ``dest`` as node ids."""
        if not self.reachable(dest):
            return []
        nodes = [self.root]
        for link_id in self.path_links(dest):
            nodes.append(self.network.link(link_id).dst)
        return nodes

    def hop_count(self, dest: int) -> int:
        """Number of links on the tree path to ``dest`` (0 for the root)."""
        return len(self.path_links(dest))

    def uses_link(self, dest: int, link_id: int) -> bool:
        """Whether the root's route to ``dest`` traverses ``link_id``."""
        return link_id in self.path_links(dest)
