"""Tests for forwarding tables and the shared SPF tree store.

Covers the guarantees the hot-path layer makes:

* forwarding tables agree with :meth:`SpfTree.next_hop_link` entry for
  entry (including unreachable destinations), whatever order entries
  are first looked up in, and every request builds a new table over the
  tree's current state,
* shared-tree keys change with cost contents and on link up/down, the
  store is LRU-bounded, and the hit/miss accounting reflects every
  lookup.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import UNREACHABLE, CostTable, SpfTree
from repro.routing.spf_cache import SpfCache, compile_forwarding_table
from repro.topology import build_random_network, build_ring_network


def _lookups(table, network):
    """Every destination's entry, in id order."""
    return [table[dest] for dest in network.nodes]


def _assert_table_matches_tree(table, tree):
    for dest in tree.network.nodes:
        assert table[dest] == tree.next_hop_link(dest), (
            f"forwarding table disagrees with tree at dest {dest}"
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


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lazy_lookups_follow_the_tree_through_cost_batches(data):
    """Random cost batches, dead links included, each followed by
    lookups in a drawn order with repeats.  The table is kept across
    batches that leave the tree alone and replaced after one that moves
    it, as a PSN does; every lookup equals the whole-table compile and a
    fresh tree's next hop."""
    nodes = data.draw(st.integers(min_value=2, max_value=12), label="nodes")
    extra = data.draw(st.integers(min_value=0, max_value=6), label="extra")
    topo_seed = data.draw(st.integers(min_value=0, max_value=999),
                          label="topo_seed")
    net = build_random_network(nodes, extra_circuits=extra, seed=topo_seed)
    root = data.draw(st.integers(min_value=0, max_value=nodes - 1),
                     label="root")
    cost_value = st.one_of(
        st.integers(min_value=1, max_value=20).map(float),
        st.just(UNREACHABLE),
    )
    batches = data.draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(net.links) - 1),
                    cost_value,
                ),
                max_size=len(net.links),
            ),
            min_size=1,
            max_size=5,
        ),
        label="batches",
    )
    dest = st.integers(min_value=0, max_value=nodes - 1)

    cache = SpfCache(net)
    tree = SpfTree(net, root, CostTable.uniform(net, 1.0))
    table = cache.forwarding_table(tree)
    tables = 1
    for dest_id in data.draw(st.lists(dest, max_size=nodes), label="warm"):
        assert table[dest_id] == tree.next_hop_link(dest_id)
    for changes in batches:
        if tree.update_costs(changes):
            table = cache.forwarding_table(tree)
            tables += 1
        fresh = SpfTree(net, root, tree.costs.copy())
        compiled = compile_forwarding_table(tree)
        order = data.draw(st.lists(dest, max_size=3 * nodes), label="order")
        for dest_id in order + list(range(nodes)):
            assert table[dest_id] == compiled[dest_id], dest_id
            assert compiled[dest_id] == fresh.next_hop_link(dest_id), dest_id
    assert cache.stats.table_misses == tables


# ----------------------------------------------------------------------
# Forwarding tables: a new one on every request, never stored
# ----------------------------------------------------------------------
def test_forwarding_table_hit_and_miss_accounting():
    """Every request builds a new table and counts one ``table_misses``."""
    net = build_ring_network(5)
    cache = SpfCache(net)
    tree = SpfTree(net, 0, CostTable.uniform(net, 10.0))

    first = cache.forwarding_table(tree)
    again = cache.forwarding_table(tree)
    assert again is not first
    assert _lookups(again, net) == _lookups(first, net)
    assert cache.stats.table_misses == 2
    _assert_table_matches_tree(again, tree)

    other = SpfTree(net, 2, CostTable.uniform(net, 10.0))
    _assert_table_matches_tree(cache.forwarding_table(other), other)
    assert cache.stats.table_misses == 3


def test_cost_change_invalidates_cached_table():
    """A table taken after a cost change follows the repaired tree;
    reverting the cost gives the original entries back."""
    net = build_ring_network(4)
    cache = SpfCache(net)
    tree = SpfTree(net, 0, CostTable.uniform(net, 5.0))

    before = _lookups(cache.forwarding_table(tree), net)
    assert tree.update_cost(before[1], 50.0)
    moved = cache.forwarding_table(tree)
    assert _lookups(moved, net) != before
    _assert_table_matches_tree(moved, tree)

    tree.update_cost(before[1], 5.0)
    assert _lookups(cache.forwarding_table(tree), net) == before


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
