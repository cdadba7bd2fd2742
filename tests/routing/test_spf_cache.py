"""Tests for compiled forwarding tables and the shared SPF tree store.

Covers the guarantees the hot-path layer makes:

* compiled tables agree with :meth:`SpfTree.next_hop_link` entry for
  entry (including unreachable destinations), and every request
  compiles afresh from the tree's current state,
* shared-tree keys change with cost contents and on link up/down, the
  store is LRU-bounded, and the hit/miss accounting reflects every
  lookup.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import CostTable, SpfTree
from repro.routing.spf_cache import SpfCache, compile_forwarding_table
from repro.topology import build_random_network, build_ring_network


def _assert_table_matches_tree(table, tree):
    for dest in tree.network.nodes:
        assert table[dest] == tree.next_hop_link(dest), (
            f"compiled table disagrees with tree at dest {dest}"
        )


# ----------------------------------------------------------------------
# compile_forwarding_table
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=2, max_value=16),
    extra=st.integers(min_value=0, max_value=10),
    root=st.integers(min_value=0, max_value=15),
)
def test_compiled_table_matches_next_hop_link(seed, n, extra, root):
    net = build_random_network(n, extra_circuits=extra, seed=seed)
    tree = SpfTree(net, root % n, CostTable.uniform(net, 1.0))
    _assert_table_matches_tree(compile_forwarding_table(tree), tree)


def test_compiled_table_handles_unreachable_partition():
    net = build_ring_network(4)
    # Sever node 3 from the ring entirely: both its circuits go down.
    down = {
        link.link_id
        for link in net.out_links(3, include_down=True)
    }
    for link_id in sorted(down):
        net.set_circuit_state(link_id, up=False)
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    table = compile_forwarding_table(tree)
    assert table[0] is None  # the root itself
    assert table[3] is None  # unreachable
    assert table[1] is not None and table[2] is not None
    _assert_table_matches_tree(table, tree)


# ----------------------------------------------------------------------
# Forwarding tables: compiled on every request, never stored
# ----------------------------------------------------------------------
def test_forwarding_table_hit_and_miss_accounting():
    """Every request compiles afresh and counts one ``table_misses``."""
    net = build_ring_network(5)
    cache = SpfCache(net)
    tree = SpfTree(net, 0, CostTable.uniform(net, 10.0))

    first = cache.forwarding_table(tree)
    again = cache.forwarding_table(tree)
    assert again is not first and again == first
    assert cache.stats.table_misses == 2
    _assert_table_matches_tree(again, tree)

    other = SpfTree(net, 2, CostTable.uniform(net, 10.0))
    _assert_table_matches_tree(cache.forwarding_table(other), other)
    assert cache.stats.table_misses == 3


def test_cost_change_invalidates_cached_table():
    """A table compiled after a cost change follows the repaired tree;
    reverting the cost compiles the original table back."""
    net = build_ring_network(4)
    cache = SpfCache(net)
    tree = SpfTree(net, 0, CostTable.uniform(net, 5.0))

    before = cache.forwarding_table(tree)
    assert tree.update_cost(before[1], 50.0)
    moved = cache.forwarding_table(tree)
    assert moved != before
    _assert_table_matches_tree(moved, tree)

    tree.update_cost(before[1], 5.0)
    assert cache.forwarding_table(tree) == before


# ----------------------------------------------------------------------
# Shared trees
# ----------------------------------------------------------------------
def test_shared_tree_hit_and_miss_accounting():
    net = build_ring_network(5)
    cache = SpfCache(net)
    costs = CostTable.uniform(net, 7.0)

    tree = cache.shared_tree(1, costs)
    assert cache.stats.tree_misses == 1
    assert cache.shared_tree(1, CostTable.uniform(net, 7.0)) is tree
    assert cache.stats.tree_hits == 1

    # The shared tree must be a real from-scratch Dijkstra result.
    fresh = SpfTree(net, 1, costs.copy())
    assert tree.dist == fresh.dist
    assert tree.parent_link == fresh.parent_link

    # The cached tree owns a private copy: mutating the caller's table
    # afterwards must not corrupt it, and the new contents miss.
    costs[0] = 99.0
    assert tree.costs[0] == 7.0
    assert cache.shared_tree(1, costs) is not tree
    assert cache.stats.tree_misses == 2


def test_link_state_change_invalidates_cached_entries():
    net = build_ring_network(4)
    cache = SpfCache(net)
    costs = CostTable.uniform(net, 5.0)
    before = cache.shared_tree(0, costs)
    version = net.topology_version

    affected = net.set_circuit_state(0, up=False)
    assert affected and net.topology_version > version
    # Same root, same costs -- but the topology version in the key
    # changed, so the store must miss and compute over the new links.
    down = cache.shared_tree(0, costs)
    assert down is not before
    assert cache.stats.tree_misses == 2
    assert down.parent_link == SpfTree(net, 0, costs.copy()).parent_link

    # Bringing the circuit back up is a *new* version again, not a
    # return to the old key: trees computed while it was down can
    # never be served for the restored topology.
    net.set_circuit_state(0, up=True)
    assert cache.shared_tree(0, costs) not in (before, down)
    assert cache.stats.tree_misses == 3


def test_lru_eviction_is_bounded_and_counted():
    net = build_ring_network(4)
    cache = SpfCache(net, max_entries=2)
    costs = CostTable.uniform(net, 1.0)
    for root in range(3):
        cache.shared_tree(root, costs)
    assert len(cache._trees) == 2
    assert cache.stats.evictions == 1
    # Root 0 was evicted (least recently used) -> looking it up misses.
    cache.shared_tree(0, costs)
    assert cache.stats.tree_misses == 4
    assert cache.stats.evictions == 2


def test_max_entries_must_be_positive():
    with pytest.raises(ValueError):
        SpfCache(build_ring_network(3), max_entries=0)
