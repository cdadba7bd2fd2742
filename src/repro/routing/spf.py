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

Costs are floats so the analysis package can sweep costs in fractional
hops; the operational simulator feeds integer routing units.  Down links
have cost ``inf``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

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

    Write through ``table[link_id] = cost``, which rejects negative
    costs.
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
        if cost < 0:
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
        self.dist: Dict[int, float] = {}
        #: link id of the tree edge *into* each node (None for root and
        #: unreachable nodes).
        self.parent_link: Dict[int, Optional[int]] = {}
        #: Lazily built (link count, out map, in map) adjacency snapshot;
        #: see :meth:`_static_adjacency`.
        self._adj_cache: Optional[tuple] = None
        self.recompute()

    # ------------------------------------------------------------------
    # Full computation
    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Full Dijkstra from the root."""
        self.stats.full_computations += 1
        self.dist = {node_id: UNREACHABLE for node_id in self.network.nodes}
        self.parent_link = {node_id: None for node_id in self.network.nodes}
        self.dist[self.root] = 0.0
        heap: List = [(0.0, 0, self.root)]
        sequence = count(1)
        done: Set[int] = set()
        while heap:
            d, _seq, node = heapq.heappop(heap)
            if node in done or d > self.dist[node]:
                continue
            done.add(node)
            self.stats.nodes_scanned += 1
            for link in self.network.out_links(node):
                cost = self.costs[link.link_id]
                if math.isinf(cost):
                    continue
                candidate = d + cost
                if candidate < self.dist[link.dst]:
                    self.dist[link.dst] = candidate
                    self.parent_link[link.dst] = link.link_id
                    heapq.heappush(heap, (candidate, next(sequence), link.dst))
                elif candidate == self.dist[link.dst]:
                    # Canonical tie-break: smallest tight link id.  Every
                    # settled node relaxes its out-links, so every tight
                    # in-link of every node gets compared here.
                    current = self.parent_link[link.dst]
                    if current is not None and link.link_id < current:
                        self.parent_link[link.dst] = link.link_id

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

        Returns ``True`` when the tree was adjusted and ``False`` for a
        no-op, so callers can keep routing state derived from the tree
        (e.g. a compiled forwarding table) across no-op batches.
        """
        effective: Dict[int, float] = {}
        for link_id, new_cost in changes:
            if new_cost < 0:
                raise ValueError(f"link cost must be >= 0, got {new_cost}")
            effective[link_id] = new_cost

        decreased: List[int] = []
        detach_roots: List[int] = []
        applied = 0
        for link_id, new_cost in effective.items():
            old_cost = self.costs[link_id]
            if new_cost == old_cost:
                continue
            self.costs[link_id] = new_cost
            applied += 1
            link = self.network.link(link_id)
            if new_cost < old_cost:
                decreased.append(link_id)
            elif self.parent_link.get(link.dst) == link_id:
                detach_roots.append(link.dst)
            # Increases on non-tree links need no work at all.

        if applied == 0:
            self.stats.no_op_updates += 1
            return False
        self.stats.batched_changes += applied

        dist = self.dist
        parent = self.parent_link
        network = self.network
        costs = self.costs

        # Detach the union of the subtrees below every increased tree
        # link; everything outside keeps a still-achievable distance.
        # Children are discovered through the static adjacency -- ``m``
        # hangs off ``n`` exactly when ``parent_link[m]`` is a link
        # n->m -- so the walk costs O(subtree * degree), not O(N).
        detached: Set[int] = set()
        if detach_roots:
            out_adj, in_adj = self._static_adjacency()
            stack = detach_roots
            while stack:
                node = stack.pop()
                if node in detached:
                    continue
                detached.add(node)
                for link in out_adj[node]:
                    if parent.get(link.dst) == link.link_id:
                        stack.append(link.dst)
        for node in detached:
            dist[node] = UNREACHABLE
            parent[node] = None

        heap: List = []
        sequence = count()
        moved = bool(detached)
        touched: Set[int] = set(detached)

        # Re-seed detached nodes from every link crossing the boundary.
        for node in detached:
            for link in in_adj[node]:
                if not link.up or link.src in detached:
                    continue
                cost = costs[link.link_id]
                base = dist[link.src]
                if math.isinf(cost) or math.isinf(base):
                    continue
                candidate = base + cost
                if candidate < dist[node]:
                    dist[node] = candidate
                    parent[node] = link.link_id
                    heapq.heappush(heap, (candidate, next(sequence), node))

        # Relax every decreased link directly.
        for link_id in decreased:
            link = network.link(link_id)
            base = dist[link.src]
            cost = costs[link_id]
            if math.isinf(base) or math.isinf(cost):
                continue
            candidate = base + cost
            if candidate < dist[link.dst]:
                dist[link.dst] = candidate
                parent[link.dst] = link_id
                touched.add(link.dst)
                heapq.heappush(heap, (candidate, next(sequence), link.dst))
                moved = True
            elif candidate == dist[link.dst]:
                # The decrease made this link exactly tight: the
                # canonical (min-link-id) parent may switch.
                current = parent[link.dst]
                if current is not None and link_id < current:
                    parent[link.dst] = link_id
                    moved = True

        if not heap and not moved:
            self.stats.no_op_updates += 1
            return False
        self.stats.batched_passes += 1

        # One settle pass over the whole affected region.
        while heap:
            d, _seq, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            self.stats.nodes_scanned += 1
            for out in network.out_links(node):
                cost = costs[out.link_id]
                if math.isinf(cost):
                    continue
                candidate = d + cost
                if candidate < dist[out.dst]:
                    dist[out.dst] = candidate
                    parent[out.dst] = out.link_id
                    touched.add(out.dst)
                    heapq.heappush(heap, (candidate, next(sequence), out.dst))
                elif candidate == dist[out.dst]:
                    current = parent[out.dst]
                    if current is not None and out.link_id < current:
                        parent[out.dst] = out.link_id
        self._canonicalize_parents(touched)
        return True

    def _canonicalize_parents(self, nodes) -> None:
        """Re-derive the canonical parent for ``nodes`` from final dists.

        The inline tie-comparisons in the relaxation loops keep parents
        canonical for nodes whose distance never changed, but a node
        whose distance *moved* can be tight through an in-link whose
        source was never rescanned in that pass.  Tightness is a pure
        function of distances and costs, so one sweep over the moved
        nodes -- picking the smallest tight in-link id -- restores the
        global invariant at O(moved * degree).
        """
        if not nodes:
            return
        _out_adj, in_adj = self._static_adjacency()
        dist = self.dist
        costs = self.costs
        for node in nodes:
            if node == self.root:
                continue
            d = dist[node]
            if math.isinf(d):
                self.parent_link[node] = None
                continue
            best: Optional[int] = None
            for link in in_adj[node]:
                if not link.up:
                    continue
                lid = link.link_id
                if best is not None and lid >= best:
                    continue
                cost = costs[lid]
                if math.isinf(cost):
                    continue
                if dist[link.src] + cost == d:
                    best = lid
            self.parent_link[node] = best

    def _static_adjacency(self) -> Tuple[Dict[int, List], Dict[int, List]]:
        """Per-node outgoing and incoming :class:`Link` lists, cached.

        Down links are *included* -- callers check ``link.up`` where it
        matters -- because the link set is append-only for a network's
        lifetime while up/down flags toggle freely, which lets the lists
        survive failures and recoveries.  Rebuilt only when links were
        added since the snapshot was taken.
        """
        cache = self._adj_cache
        links = self.network.links
        if cache is None or cache[0] != len(links):
            out_map: Dict[int, List] = {n: [] for n in self.network.nodes}
            in_map: Dict[int, List] = {n: [] for n in self.network.nodes}
            for link in links:
                out_map[link.src].append(link)
                in_map[link.dst].append(link)
            cache = self._adj_cache = (len(links), out_map, in_map)
        return cache[1], cache[2]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable(self, dest: int) -> bool:
        """Whether the root currently has any path to ``dest``."""
        return not math.isinf(self.dist[dest])

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
