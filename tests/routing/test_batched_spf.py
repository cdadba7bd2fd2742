"""Batched multi-link SPF repair: ``SpfTree.update_costs``.

The batched pass promises the *bit-identical* shortest-path tree after
absorbing an arbitrary mix of cost increases and decreases in one scan:
every repair path resolves equal-cost ties with the canonical
smallest-link-id rule, making the tree a pure function of the cost
table.  The property test drives it with random topologies and random
deltas and checks distances *and* parent pointers against a
from-scratch Dijkstra after every batch of a sequence, dead links
included.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.spf import UNREACHABLE, CostTable, SpfTree
from repro.topology.generators import build_random_network, build_ring_network


def _tree(network, costs, root=0):
    return SpfTree(network, root, CostTable(list(costs)))


def _assert_valid_tree(tree, network, costs):
    """Structural invariants: every parent pointer is consistent."""
    assert len(tree.parent_link) == len(tree.dist) == len(network.nodes)
    for node, link_id in enumerate(tree.parent_link):
        if link_id is None:
            assert node == tree.root or math.isinf(tree.dist[node])
            continue
        link = network.links[link_id]
        assert link.dst == node
        assert tree.dist[node] == tree.dist[link.src] + costs[link_id]


# ----------------------------------------------------------------------
# Deterministic cases
# ----------------------------------------------------------------------
def test_empty_batch_is_a_no_op():
    network = build_ring_network(5)
    tree = _tree(network, [1.0] * len(network.links))
    before = list(tree.dist)
    assert tree.update_costs([]) is False
    assert tree.dist == before
    assert tree.stats.batched_passes == 0


def test_unchanged_costs_are_a_no_op():
    network = build_ring_network(5)
    tree = _tree(network, [1.0] * len(network.links))
    assert tree.update_costs([(0, 1.0), (3, 1.0)]) is False
    assert tree.stats.no_op_updates == 1


def test_last_write_wins_for_duplicate_links():
    network = build_ring_network(4)
    tree = _tree(network, [1.0] * len(network.links))
    assert tree.update_costs([(0, 9.0), (0, 1.0)]) is False
    assert tree.costs[0] == 1.0


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_invalid_cost_rejects_the_whole_batch(bad):
    """A negative or NaN cost raises before any change of the batch is
    applied.  NaN used to pass a ``< 0`` guard and silently reroute:
    on this ring node 1 ended up at distance 3."""
    network = build_ring_network(4)
    tree = _tree(network, [1.0] * len(network.links))
    dist, parents = list(tree.dist), list(tree.parent_link)
    with pytest.raises(ValueError):
        tree.update_costs([(2, 5.0), (0, bad)])
    assert tree.costs.costs == [1.0] * len(network.links)
    assert tree.dist == dist and tree.parent_link == parents


def test_mixed_batch_matches_recompute():
    network = build_random_network(10, extra_circuits=4, seed=7)
    costs = [float(c) for c in range(2, 2 + len(network.links))]
    tree = _tree(network, costs)
    # Guarantee real tree surgery: push one in-use (tree) link way up,
    # pull two others way down, bump one non-tree link.
    tree_link = next(
        link_id for link_id in tree.parent_link if link_id is not None
    )
    changes = [(tree_link, 50.0), (1, 1.0), (5, 30.0), (8, 1.0)]
    assert tree.update_costs(changes) is True
    for link_id, cost in changes:
        costs[link_id] = cost
    fresh = _tree(network, costs)
    assert tree.dist == fresh.dist
    assert tree.parent_link == fresh.parent_link
    _assert_valid_tree(tree, network, costs)
    assert tree.stats.batched_passes == 1
    assert tree.stats.batched_changes == len(changes)


# ----------------------------------------------------------------------
# Property: batched repair == full recompute, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_update_costs_equals_recompute(data):
    nodes = data.draw(st.integers(min_value=3, max_value=12), label="nodes")
    extra = data.draw(st.integers(min_value=0, max_value=6), label="extra")
    topo_seed = data.draw(st.integers(min_value=0, max_value=999),
                          label="topo_seed")
    network = build_random_network(nodes, extra_circuits=extra,
                                   seed=topo_seed)
    link_count = len(network.links)

    # Dead links (UNREACHABLE) are drawn too: they detach subtrees and
    # partition the network, the cases a link failure produces.
    cost_value = st.one_of(
        st.integers(min_value=1, max_value=20).map(float),
        st.just(UNREACHABLE),
    )
    costs = data.draw(
        st.lists(cost_value, min_size=link_count, max_size=link_count),
        label="costs",
    )
    batches = data.draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=link_count - 1),
                    cost_value,
                ),
                max_size=link_count,
            ),
            min_size=1,
            max_size=4,
        ),
        label="batches",
    )

    tree = _tree(network, costs)
    final = list(costs)
    for changes in batches:
        tree.update_costs(changes)
        for link_id, cost in changes:
            final[link_id] = cost
        fresh = _tree(network, final)

        assert tree.dist == fresh.dist
        assert tree.parent_link == fresh.parent_link
        assert list(tree.costs.costs) == final
        _assert_valid_tree(tree, network, final)
