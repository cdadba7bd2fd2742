"""Shortest Path First route computation.

Each PSN knows the full topology and a cost for every link, and builds a
shortest-path tree rooted at itself with Dijkstra's algorithm [Dijkstra
1959].  The ARPANET implementation is an *incremental* SPF: when a routing
update changes one link's cost, the PSN adjusts only the affected part of
the tree -- e.g. *"if a routing update reports an increase in the cost for
a link not in the tree, the algorithm does not recompute any part of the
tree"*.

:class:`SpfTree` implements both the full computation and the incremental
update, and counts how much work each update costs (the Table-1 "PSN CPU
utilization" proxy).  Correctness of the incremental path is property-
tested against full recomputation.

**Canonical tie-breaking.**  Where several equal-cost shortest paths
exist, every code path -- full recompute, per-link incremental repair,
and the batched multi-link repair -- resolves the tie the same way:
each node's parent is the *smallest link id* among its tight in-links
(links ``u -> v`` with ``dist[u] + cost == dist[v]``).  Distances are a
pure function of the cost table, so with this rule the whole tree is
too: applying the same cost changes one at a time, in one batch, or by
recomputing from scratch yields bit-identical trees.  That is what lets
the simulator repair in batches without perturbing goldens recorded
under per-update repair, and what makes shared forwarding tables (keyed
only by cost fingerprint) exact rather than merely tie-equivalent.

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
    incremental_updates: int = 0
    no_op_updates: int = 0
    nodes_scanned: int = 0
    #: Batched multi-link repair passes (see :meth:`SpfTree.update_costs`).
    batched_passes: int = 0
    #: Individual link changes absorbed by those passes.
    batched_changes: int = 0

    def reset(self) -> "SpfStats":
        snapshot = SpfStats(
            self.full_computations,
            self.incremental_updates,
            self.no_op_updates,
            self.nodes_scanned,
            self.batched_passes,
            self.batched_changes,
        )
        self.full_computations = 0
        self.incremental_updates = 0
        self.no_op_updates = 0
        self.nodes_scanned = 0
        self.batched_passes = 0
        self.batched_changes = 0
        return snapshot


#: Word size of the incremental content fingerprint.
_FP_MASK = (1 << 64) - 1


def _entry_fp(link_id: int, cost: float) -> int:
    """Deterministic 64-bit digest of one ``(link_id, cost)`` entry.

    Built on :func:`hash`, which is unseeded (and therefore stable across
    processes) for numbers; equal numbers hash equal, so ``1`` and ``1.0``
    fingerprint identically -- matching tuple equality of the raw costs.
    """
    return hash((link_id, cost)) & _FP_MASK


@dataclass
class CostTable:
    """A node's view of every link's cost, indexed by link id.

    Mutate only through ``table[link_id] = cost`` -- besides validating,
    that keeps the incremental fingerprint (see :meth:`cache_key`) honest.
    """

    costs: List[float]

    def __post_init__(self) -> None:
        self._rebuild_fingerprint()

    def _rebuild_fingerprint(self) -> None:
        """Full O(L) fingerprint build (construction only)."""
        xor_part = 0
        sum_part = 0
        for link_id, cost in enumerate(self.costs):
            entry = _entry_fp(link_id, cost)
            xor_part ^= entry
            sum_part += entry
        self._fp_xor = xor_part
        self._fp_sum = sum_part & _FP_MASK
        #: Entries touched while maintaining the fingerprint: ``L`` for a
        #: full build, ``+1`` per mutation.  Regression-tested so cache
        #: lookups stay O(changed), never O(links).
        self.key_work = len(self.costs)

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
        old = self.costs[link_id]
        self.costs[link_id] = cost
        old_fp = _entry_fp(link_id, old)
        new_fp = _entry_fp(link_id, cost)
        self._fp_xor ^= old_fp ^ new_fp
        self._fp_sum = (self._fp_sum - old_fp + new_fp) & _FP_MASK
        self.key_work += 1

    def copy(self) -> "CostTable":
        clone = CostTable.__new__(CostTable)
        clone.costs = list(self.costs)
        clone._fp_xor = self._fp_xor
        clone._fp_sum = self._fp_sum
        clone.key_work = 0
        return clone

    def cache_key(self) -> tuple:
        """A hashable content fingerprint of the table, in O(1).

        Two tables with equal keys route identically; the network-wide
        SPF cache (:mod:`repro.routing.spf_cache`) uses this to share
        Dijkstra results between nodes whose cost views agree.  The
        fingerprint is maintained incrementally by ``__setitem__`` (two
        independent 64-bit mixes of per-entry digests), so a lookup after
        *k* mutations costs O(k) total, not O(links) per lookup.
        """
        return (len(self.costs), self._fp_xor, self._fp_sum)


class SpfTree:
    """A shortest-path tree rooted at one PSN, incrementally maintained.

    Parameters
    ----------
    network:
        The (shared, read-only) topology.
    root:
        Node id of the PSN owning this tree.
    costs:
        The node's cost table.  The tree keeps a reference: mutate it
        through :meth:`update_cost` so the tree stays consistent.
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
    # Incremental update
    # ------------------------------------------------------------------
    def update_cost(self, link_id: int, new_cost: float) -> bool:
        """Apply one link-cost change, adjusting only the affected region.

        Implements the classic incremental SPF cases:

        * cost increase on a link not in the tree: **no work at all**,
        * cost decrease: propagate the (possible) improvement from the
          link's head,
        * cost increase on a tree link: detach the affected subtree and
          re-attach it through its best boundary links.

        Returns ``True`` when the tree was adjusted and ``False`` for a
        no-op, so callers can keep routing state derived from the tree
        (e.g. a compiled forwarding table) across no-op updates.
        """
        old_cost = self.costs[link_id]
        self.costs[link_id] = new_cost
        if new_cost == old_cost:
            self.stats.no_op_updates += 1
            return False
        link = self.network.link(link_id)
        in_tree = self.parent_link.get(link.dst) == link_id

        if new_cost < old_cost:
            base = self.dist[link.src]
            if math.isinf(base):
                self.stats.no_op_updates += 1
                return False
            if in_tree or base + new_cost < self.dist[link.dst]:
                self.stats.incremental_updates += 1
                self._propagate_improvement(link_id)
                return True
            if base + new_cost == self.dist[link.dst]:
                # The decrease created an exact tie: no distance moves,
                # but the canonical (min-link-id) parent may switch.
                current = self.parent_link[link.dst]
                if current is not None and link_id < current:
                    self.parent_link[link.dst] = link_id
                    self.stats.incremental_updates += 1
                    return True
            self.stats.no_op_updates += 1
            return False

        # Cost increased.
        if not in_tree:
            # "the algorithm does not recompute any part of the tree"
            self.stats.no_op_updates += 1
            return False
        self.stats.incremental_updates += 1
        self._reattach_subtree(link.dst)
        return True

    def update_costs(self, changes) -> bool:
        """Apply many link-cost changes in **one** repair pass.

        ``changes`` is an iterable of ``(link_id, new_cost)`` pairs (the
        last write wins when a link appears twice).  Semantically this is
        a batched routing interval: the tree afterwards is **bit
        identical** to applying the same changes one :meth:`update_cost`
        at a time, or to a full :meth:`recompute` -- all three resolve
        equal-cost ties with the canonical smallest-link-id rule (see
        the module docstring), and this equivalence is property-tested.

        The pass generalizes the single-link cases: all increased tree
        links detach one *union* subtree, which is re-seeded across its
        boundary together with every decreased link, then settled with a
        single Dijkstra scan.  Cost: one scan of the affected region,
        however many links changed, instead of one scan per link.

        Returns ``True`` when the tree was adjusted (same contract as
        :meth:`update_cost`).
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
        # n->m -- so the walk costs O(subtree * degree) instead of the
        # O(N) children index a 512-node tree pays per pass.
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

    def _propagate_improvement(self, link_id: int) -> None:
        """Relax outward from a link whose cost dropped."""
        link = self.network.link(link_id)
        heap: List = []
        sequence = count()
        touched: List[int] = []
        candidate = self.dist[link.src] + self.costs[link_id]
        if candidate < self.dist[link.dst] or (
            self.parent_link.get(link.dst) == link_id
            and candidate != self.dist[link.dst]
        ):
            self.dist[link.dst] = candidate
            self.parent_link[link.dst] = link_id
            touched.append(link.dst)
            heapq.heappush(heap, (candidate, next(sequence), link.dst))
        while heap:
            d, _seq, node = heapq.heappop(heap)
            if d > self.dist[node]:
                continue
            self.stats.nodes_scanned += 1
            for out in self.network.out_links(node):
                cost = self.costs[out.link_id]
                if math.isinf(cost):
                    continue
                cand = d + cost
                if cand < self.dist[out.dst]:
                    self.dist[out.dst] = cand
                    self.parent_link[out.dst] = out.link_id
                    touched.append(out.dst)
                    heapq.heappush(heap, (cand, next(sequence), out.dst))
                elif cand == self.dist[out.dst]:
                    # A new tie into a node whose distance is unchanged:
                    # its canonical parent is min(old parent, this link).
                    current = self.parent_link[out.dst]
                    if current is not None and out.link_id < current:
                        self.parent_link[out.dst] = out.link_id
        self._canonicalize_parents(touched)

    def _reattach_subtree(self, subtree_root: int) -> None:
        """Recompute distances for the subtree hanging off ``subtree_root``.

        Every node outside the subtree keeps its (still optimal) distance;
        subtree nodes are re-seeded from all links crossing into the
        subtree, then settled with Dijkstra.
        """
        subtree = self._collect_subtree(subtree_root)
        for node in subtree:
            self.dist[node] = UNREACHABLE
            self.parent_link[node] = None

        heap: List = []
        sequence = count()
        for node in subtree:
            for link in self.network.in_links(node):
                if link.src in subtree:
                    continue
                cost = self.costs[link.link_id]
                base = self.dist[link.src]
                if math.isinf(cost) or math.isinf(base):
                    continue
                candidate = base + cost
                if candidate < self.dist[node]:
                    self.dist[node] = candidate
                    self.parent_link[node] = link.link_id
                    heapq.heappush(heap, (candidate, next(sequence), node))

        while heap:
            d, _seq, node = heapq.heappop(heap)
            if d > self.dist[node]:
                continue
            self.stats.nodes_scanned += 1
            for out in self.network.out_links(node):
                cost = self.costs[out.link_id]
                if math.isinf(cost):
                    continue
                candidate = d + cost
                if candidate < self.dist[out.dst]:
                    self.dist[out.dst] = candidate
                    self.parent_link[out.dst] = out.link_id
                    heapq.heappush(heap, (candidate, next(sequence), out.dst))
                elif candidate == self.dist[out.dst]:
                    current = self.parent_link[out.dst]
                    if current is not None and out.link_id < current:
                        self.parent_link[out.dst] = out.link_id
        self._canonicalize_parents(subtree)

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

    def _children_index(self) -> Dict[int, List[int]]:
        """Tree children per node, from the parent-link pointers."""
        children: Dict[int, List[int]] = {}
        links = self.network.links
        for node, link_id in self.parent_link.items():
            if link_id is not None:
                src = links[link_id].src
                bucket = children.get(src)
                if bucket is None:
                    children[src] = [node]
                else:
                    bucket.append(node)
        return children

    def _collect_subtree(self, subtree_root: int) -> Set[int]:
        """All nodes whose tree path passes through ``subtree_root``."""
        children = self._children_index()
        subtree: Set[int] = set()
        stack = [subtree_root]
        while stack:
            node = stack.pop()
            if node in subtree:
                continue
            subtree.add(node)
            stack.extend(children.get(node, ()))
        return subtree

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
