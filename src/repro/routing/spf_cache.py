"""Compiled forwarding tables and network-wide shared SPF trees.

* **Compiled forwarding tables** -- :func:`compile_forwarding_table`
  flattens a tree into a ``next_hop[dest] -> link_id`` list, consulted
  per packet in O(1) instead of walking tree parent pointers per hop.
  Each PSN compiles its own table from its own tree, so the table
  inherits the tree's exact tie-breaking, and keeps it until a routing
  update next moves the tree: one compile per effective burst of
  updates.  Nothing is stored here.  A table belongs to one root, whose
  PSN already holds its current one, so a network-wide table store
  would never hit.
* **Shared Dijkstra trees** -- full from-scratch shortest-path trees
  keyed by ``(root, topology version, cost-table contents)``.  The
  equal-cost multipath router needs a tree per neighbour per recompute;
  with a consistent cost view, every node's "tree rooted at X" is the
  same object.  During D-SPF oscillation the network revisits the same
  few cost states over and over, so trees also get reused across
  *time*.

A cost change alters the key's contents, and a link up/down bumps the
topology version
(:attr:`~repro.topology.graph.Network.topology_version`), so a stale
tree can never be returned, only evicted.  The tree store is bounded;
old entries fall off in LRU order, deterministically.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.routing.spf import CostTable, SpfTree
from repro.topology.graph import Network


@dataclass
class SpfCacheStats:
    """Compile count for forwarding tables; hit/miss accounting for trees."""

    #: Forwarding tables compiled (every request compiles).
    table_misses: int = 0
    tree_hits: int = 0
    tree_misses: int = 0
    evictions: int = 0


def compile_forwarding_table(tree: SpfTree) -> List[Optional[int]]:
    """Flatten ``tree`` into ``next_hop[dest] -> outgoing link id``.

    Entry semantics match :meth:`SpfTree.next_hop_link` exactly: ``None``
    for the root itself and for unreachable destinations.  One amortized
    O(N) pass: each parent-pointer walk stops at the first node already
    resolved and back-fills the whole chain.
    """
    network = tree.network
    root = tree.root
    parent_link = tree.parent_link
    links = network.links
    size = len(network.nodes)
    table: List[Optional[int]] = [None] * size
    resolved = bytearray(size)
    resolved[root] = 1
    for dest in range(size):
        if resolved[dest]:
            continue
        chain = [dest]
        node = dest
        first_hop: Optional[int] = None
        while True:
            link_id = parent_link.get(node)
            if link_id is None:
                break  # unreachable: the whole chain forwards nowhere
            src = links[link_id].src
            if src == root:
                first_hop = link_id
                break
            if resolved[src]:
                first_hop = table[src]
                break
            chain.append(src)
            node = src
        for member in chain:
            table[member] = first_hop
            resolved[member] = 1
    return table


class SpfCache:
    """Shared SPF trees and counted forwarding-table compiles.

    Parameters
    ----------
    network:
        The shared topology.  Tree keys include its
        ``topology_version``, so link up/down events invalidate every
        tree computed under the old link state.
    max_entries:
        Bound on the tree store; least-recently-used trees are evicted.
    """

    def __init__(self, network: Network, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.network = network
        self.max_entries = max_entries
        self.stats = SpfCacheStats()
        self._trees: OrderedDict = OrderedDict()

    def __repr__(self) -> str:
        return (
            f"<SpfCache trees={len(self._trees)} "
            f"hits={self.stats.tree_hits}>"
        )

    def forwarding_table(self, tree: SpfTree) -> List[Optional[int]]:
        """The compiled next-hop table for ``tree``'s current state."""
        self.stats.table_misses += 1
        return compile_forwarding_table(tree)

    def shared_tree(self, root: int, costs: CostTable) -> SpfTree:
        """A full Dijkstra tree rooted at ``root`` under ``costs``.

        The tree is computed from scratch on a miss (over a private copy
        of ``costs``) and shared by reference afterwards -- treat it as
        frozen.  Any node whose cost table holds the same values gets the
        same tree object back.
        """
        key = (root, self.network.topology_version, tuple(costs.costs))
        trees = self._trees
        tree = trees.get(key)
        if tree is not None:
            self.stats.tree_hits += 1
            trees.move_to_end(key)
            return tree
        self.stats.tree_misses += 1
        tree = trees[key] = SpfTree(self.network, root, costs.copy())
        if len(trees) > self.max_entries:
            trees.popitem(last=False)
            self.stats.evictions += 1
        return tree
