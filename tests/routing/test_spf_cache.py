"""Tests for the network-wide SPF cache and compiled forwarding tables.

Covers the two guarantees the hot-path layer makes:

* compiled tables agree with :meth:`SpfTree.next_hop_link` entry for
  entry (including unreachable destinations),
* cache keys invalidate on cost changes and on link up/down, and the
  hit/miss accounting reflects every lookup.
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
# Hit/miss accounting
# ----------------------------------------------------------------------
def test_forwarding_table_hit_and_miss_accounting():
    net = build_ring_network(5)
    cache = SpfCache(net)
    tree = SpfTree(net, 0, CostTable.uniform(net, 10.0))

    first = cache.forwarding_table(tree)
    assert cache.stats.table_misses == 1
    assert cache.stats.table_hits == 0

    again = cache.forwarding_table(tree)
    assert again is first  # shared object, not a recompile
    assert cache.stats.table_hits == 1
    assert cache.stats.table_lookups == 2

    # Another node with the *same* cost view shares the miss: different
    # root means a different key, so it compiles its own table...
    other = SpfTree(net, 2, CostTable.uniform(net, 10.0))
    other_table = cache.forwarding_table(other)
    assert other_table is not first
    assert cache.stats.table_misses == 2
    # ...but a same-root, same-cost lookup from a distinct CostTable
    # object still hits: the key is the fingerprint, not identity.
    clone = SpfTree(net, 0, CostTable.uniform(net, 10.0))
    assert cache.forwarding_table(clone) is first
    assert cache.stats.table_hits == 2


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
    # afterwards must not corrupt it.
    costs[0] = 99.0
    assert tree.costs[0] == 7.0


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_cost_change_invalidates_cached_table():
    net = build_ring_network(4)
    cache = SpfCache(net)
    costs = CostTable.uniform(net, 5.0)
    tree = SpfTree(net, 0, costs)

    stale = cache.forwarding_table(tree)
    tree.update_cost(0, 50.0)
    fresh = cache.forwarding_table(tree)
    assert cache.stats.table_misses == 2  # new fingerprint -> recompile
    _assert_table_matches_tree(fresh, tree)

    # Reverting the cost restores the old fingerprint: the original
    # entry is still cached and comes back verbatim.
    tree.update_cost(0, 5.0)
    assert cache.forwarding_table(tree) is stale


def test_link_state_change_invalidates_cached_entries():
    net = build_ring_network(4)
    cache = SpfCache(net)
    tree = SpfTree(net, 0, CostTable.uniform(net, 5.0))
    cache.forwarding_table(tree)
    cache.shared_tree(0, tree.costs)
    version = net.topology_version

    affected = net.set_circuit_state(0, up=False)
    assert affected and net.topology_version > version
    # Same root, same cost fingerprint -- but the topology version in
    # the key changed, so both stores must miss.
    tree.recompute()
    cache.forwarding_table(tree)
    cache.shared_tree(0, tree.costs)
    assert cache.stats.table_misses == 2
    assert cache.stats.tree_misses == 2

    # Bringing the circuit back up is a *new* version again, not a
    # return to the old key: entries computed while it was down can
    # never be served for the restored topology.
    net.set_circuit_state(0, up=True)
    tree.recompute()
    cache.forwarding_table(tree)
    assert cache.stats.table_misses == 3


def test_lru_eviction_is_bounded_and_counted():
    net = build_ring_network(4)
    cache = SpfCache(net, max_entries=2)
    for root in range(3):
        cache.forwarding_table(SpfTree(net, root, CostTable.uniform(net, 1.0)))
    assert len(cache._tables) == 2
    assert cache.stats.evictions == 1
    # Root 0 was evicted (least recently used) -> looking it up misses.
    cache.forwarding_table(SpfTree(net, 0, CostTable.uniform(net, 1.0)))
    assert cache.stats.table_misses == 4

    cache.clear()
    assert len(cache) == 0
    assert cache.stats.table_misses == 4  # stats survive clear()


def test_max_entries_must_be_positive():
    with pytest.raises(ValueError):
        SpfCache(build_ring_network(3), max_entries=0)


# ----------------------------------------------------------------------
# Cache keys are O(changed), never O(links)
# ----------------------------------------------------------------------
def test_cache_key_work_is_o_changed_not_o_links():
    """``key_work`` counts fingerprint entries touched: L to build the
    table, then exactly one per mutation -- ``cache_key()`` itself adds
    nothing, however many links the table holds or lookups happen."""
    net = build_random_network(24, extra_circuits=12, seed=4)
    links = len(net.links)
    table = CostTable.uniform(net, 1.0)
    assert table.key_work == links  # the one full build, at construction

    for _ in range(100):
        table.cache_key()
    assert table.key_work == links  # lookups are free

    for change, link_id in enumerate(range(0, links, 3)):
        table[link_id] = 2.0 + change
        table.cache_key()
    changed = len(range(0, links, 3))
    assert table.key_work == links + changed  # one entry per mutation


def test_cache_key_tracks_content_not_history():
    net = build_ring_network(5)
    mutated = CostTable.uniform(net, 1.0)
    mutated[2] = 7.0
    mutated[4] = 3.0
    mutated[2] = 1.0  # revert

    assert CostTable(list(mutated.costs)).cache_key() == mutated.cache_key()

    # And a genuine difference is never masked by the mixing.
    mutated[4] = 1.0
    assert CostTable(list(mutated.costs)).cache_key() == mutated.cache_key()
    assert mutated.cache_key() != CostTable(
        [2.0] * len(net.links)
    ).cache_key()
