"""Forwarding tables resolved on demand, and network-wide shared SPF trees.

* **Forwarding tables** -- a :class:`ForwardingTable` maps ``dest ->
  outgoing link id`` for one tree and resolves each destination's entry
  on its first lookup, by walking ``parent_link`` up to the root's
  out-link or to the first ancestor already resolved and back-filling
  the chain.  A repair that moves the tree is typically followed by only
  a few lookups before the next one, so resolving just what is looked
  up saves an O(N) pass per repair; a resolved entry is a plain dict
  hit.  Each PSN
  takes a table for its own tree, so the table inherits the tree's exact
  tie-breaking, and keeps it until a routing update next moves the tree.
  Nothing is stored here: a table belongs to one root, whose PSN already
  holds its current one, so a network-wide table store would never hit.
  :func:`compile_forwarding_table` is the whole-table form, written over
  the same resolution.
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
    """Forwarding tables handed out; hit/miss accounting for trees."""

    #: Forwarding tables handed out (every request builds a new one).
    table_misses: int = 0
    tree_hits: int = 0
    tree_misses: int = 0
    evictions: int = 0


class ForwardingTable(dict):
    """``table[dest] -> outgoing link id`` for one tree, resolved on demand.

    Entry semantics match :meth:`SpfTree.next_hop_link` exactly: ``None``
    for the root itself and for unreachable destinations.  The first
    lookup of a destination walks ``parent_link`` up to the root's
    out-link or to the first ancestor already resolved and back-fills
    the whole chain, so resolving every destination is one amortized
    O(N) pass and each later lookup is a dict hit.

    The table reads the tree's lists in place, so it is valid until the
    tree next moves (an :meth:`SpfTree.update_costs` that returns
    ``True``); its owner then takes a new one.
    """

    __slots__ = ("_parent_link", "_links", "_root")

    def __init__(self, tree: SpfTree) -> None:
        super().__init__()
        self._parent_link = tree.parent_link
        self._links = tree.network.links
        self._root = tree.root
        self[tree.root] = None

    def __missing__(self, dest: int) -> Optional[int]:
        parent_link = self._parent_link
        links = self._links
        root = self._root
        chain = [dest]
        node = dest
        while True:
            link_id = parent_link[node]
            if link_id is None:
                first_hop = None  # unreachable: the chain forwards nowhere
                break
            src = links[link_id].src
            if src == root:
                first_hop = link_id
                break
            if src in self:
                first_hop = self[src]
                break
            chain.append(src)
            node = src
        for member in chain:
            self[member] = first_hop
        return first_hop


def compile_forwarding_table(tree: SpfTree) -> List[Optional[int]]:
    """Every entry of ``tree``'s :class:`ForwardingTable`, as a list
    indexed by destination."""
    table = ForwardingTable(tree)
    return [table[dest] for dest in range(len(tree.network.nodes))]


class SpfCache:
    """Shared SPF trees and counted forwarding tables.

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

    def forwarding_table(self, tree: SpfTree) -> ForwardingTable:
        """A next-hop table for ``tree``'s current state, resolved on
        demand (see :class:`ForwardingTable`)."""
        self.stats.table_misses += 1
        return ForwardingTable(tree)

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
