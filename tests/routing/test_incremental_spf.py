"""Incremental SPF: unit tests for each case plus the equivalence property.

``SpfTree.update_cost`` is the batched repair on a batch of one.  The
load-bearing guarantee is that a tree maintained through any sequence of
single-link cost changes has exactly the same distances and parent links
as a tree built from scratch on the final costs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import CostTable, SpfTree, UNREACHABLE
from repro.topology import Network, build_random_network, line_type


def square_network():
    net = Network("square")
    a, b, c, d = (net.add_node(x).node_id for x in "ABCD")
    net.add_circuit(a, b, line_type("56K-T"))  # 0,1
    net.add_circuit(b, c, line_type("56K-T"))  # 2,3
    net.add_circuit(c, d, line_type("56K-T"))  # 4,5
    net.add_circuit(d, a, line_type("56K-T"))  # 6,7
    net.add_circuit(a, c, line_type("56K-T"))  # 8,9
    return net


def assert_matches_full(tree):
    fresh = SpfTree(tree.network, tree.root, tree.costs.copy())
    for node in tree.network.nodes:
        assert tree.dist[node] == pytest.approx(fresh.dist[node]), node


def test_increase_on_non_tree_link_is_noop():
    """The paper's explicit example: increase off-tree => no recompute."""
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    costs[8] = 5.0  # diagonal not in tree
    tree = SpfTree(net, 0, costs)
    scanned_before = tree.stats.nodes_scanned
    tree.update_cost(8, 7.0)
    assert tree.stats.no_op_updates == 1
    assert tree.stats.nodes_scanned == scanned_before
    assert_matches_full(tree)


def test_equal_cost_update_is_noop():
    net = square_network()
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    tree.update_cost(0, 1.0)
    assert tree.stats.no_op_updates == 1


def test_decrease_pulls_route_onto_link():
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    costs[8] = 5.0
    tree = SpfTree(net, 0, costs)
    assert tree.dist[2] == 2.0
    tree.update_cost(8, 0.5)
    assert tree.dist[2] == 0.5
    assert tree.parent_link[2] == 8
    assert_matches_full(tree)


def test_decrease_propagates_downstream():
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    costs[8] = 5.0
    costs[4] = 5.0  # C->D expensive; D reached via A->D
    tree = SpfTree(net, 0, costs)
    tree.update_cost(8, 0.1)  # now A->C cheap; C at 0.1
    # D best is still direct (1.0) vs via C (0.1 + 5.0).
    assert tree.dist[3] == 1.0
    tree.update_cost(4, 0.2)  # now A->C->D = 0.3
    assert tree.dist[3] == pytest.approx(0.3)
    assert_matches_full(tree)


def test_increase_on_tree_link_reattaches_subtree():
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    costs[8] = 0.2  # A->C in tree; D hangs via A->D
    tree = SpfTree(net, 0, costs)
    assert tree.parent_link[2] == 8
    tree.update_cost(8, 10.0)
    assert tree.dist[2] == 2.0  # re-attached via B or D
    assert tree.parent_link[2] != 8
    assert_matches_full(tree)


def test_link_failure_via_infinite_cost():
    net = square_network()
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    tree.update_cost(0, UNREACHABLE)  # A->B down
    assert tree.dist[1] == 2.0  # via C or D
    assert_matches_full(tree)


def test_total_partition_and_recovery():
    net = square_network()
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    for link_id in (0, 7, 8):
        tree.update_cost(link_id, UNREACHABLE)
    assert all(not tree.reachable(d) for d in (1, 2, 3))
    tree.update_cost(0, 1.0)
    assert tree.reachable(3)
    assert tree.dist[3] == 3.0
    assert_matches_full(tree)


def test_decrease_from_unreachable_source_is_noop():
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    for link_id in (0, 7, 8):
        costs[link_id] = UNREACHABLE
    tree = SpfTree(net, 0, costs)
    # B is unreachable; lowering B->C's cost changes nothing for root A.
    tree.update_cost(2, 0.1)
    assert not tree.reachable(2)
    assert_matches_full(tree)


def test_incremental_cheaper_than_full_on_arpanet():
    """Off-tree increases must do no scanning work at all."""
    from repro.topology import build_arpanet_1987

    net = build_arpanet_1987()
    tree = SpfTree(net, 0, CostTable.uniform(net, 30.0))
    off_tree = [
        l.link_id for l in net.links
        if tree.parent_link[l.dst] != l.link_id
    ]
    scanned_before = tree.stats.nodes_scanned
    for link_id in off_tree[:20]:
        tree.update_cost(link_id, 31.0)
    assert tree.stats.nodes_scanned == scanned_before
    assert_matches_full(tree)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=200),
    n=st.integers(min_value=3, max_value=15),
    extra=st.integers(min_value=0, max_value=10),
    changes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10 ** 6),
            st.one_of(
                st.floats(min_value=0.1, max_value=100.0),
                st.just(UNREACHABLE),
            ),
        ),
        min_size=1,
        max_size=12,
    ),
    root_pick=st.integers(min_value=0, max_value=10 ** 6),
)
def test_property_incremental_equals_full(seed, n, extra, changes, root_pick):
    """Any sequence of cost changes: incremental == from-scratch."""
    net = build_random_network(n, extra_circuits=extra, seed=seed)
    root = root_pick % n
    tree = SpfTree(net, root, CostTable.uniform(net, 1.0))
    for raw_link, cost in changes:
        link_id = raw_link % len(net.links)
        tree.update_cost(link_id, cost)
        fresh = SpfTree(net, root, tree.costs.copy())
        for node in net.nodes:
            if math.isinf(fresh.dist[node]):
                assert math.isinf(tree.dist[node])
            else:
                assert tree.dist[node] == pytest.approx(fresh.dist[node])
        assert tree.parent_link == fresh.parent_link


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100),
    changes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10 ** 6),
            st.integers(min_value=30, max_value=90),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_property_next_hops_stay_consistent(seed, changes):
    """After any update burst, following next hops always reaches the
    destination in at most |V| steps (no forwarding loops with a
    consistent cost view)."""
    net = build_random_network(8, extra_circuits=6, seed=seed)
    trees = {
        node: SpfTree(net, node, CostTable.uniform(net, 30.0))
        for node in net.nodes
    }
    for raw_link, cost in changes:
        link_id = raw_link % len(net.links)
        for tree in trees.values():
            tree.update_cost(link_id, float(cost))
    for source in net.nodes:
        for dest in net.nodes:
            node = source
            for _hop in range(len(net.nodes) + 1):
                if node == dest:
                    break
                link_id = trees[node].next_hop_link(dest)
                assert link_id is not None
                node = net.link(link_id).dst
            assert node == dest


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=200),
    n=st.integers(min_value=3, max_value=12),
    extra=st.integers(min_value=0, max_value=8),
    changes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10 ** 6),
            st.one_of(
                st.floats(min_value=0.1, max_value=100.0),
                st.just(UNREACHABLE),
            ),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_property_noop_accounting_and_change_flag(seed, n, extra, changes):
    """``update_cost`` returns False exactly for accounted no-ops, and a
    False return guarantees the tree (routes *and* distances) did not
    move -- the contract the compiled-forwarding-table invalidation in
    :mod:`repro.psn.node` relies on."""
    net = build_random_network(n, extra_circuits=extra, seed=seed)
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    for raw_link, cost in changes:
        link_id = raw_link % len(net.links)
        noops_before = tree.stats.no_op_updates
        passes_before = tree.stats.batched_passes
        dist_before = list(tree.dist)
        parents_before = list(tree.parent_link)
        changed = tree.update_cost(link_id, cost)
        if changed:
            assert tree.stats.batched_passes == passes_before + 1
            assert tree.stats.no_op_updates == noops_before
        else:
            assert tree.stats.no_op_updates == noops_before + 1
            assert tree.stats.batched_passes == passes_before
            assert tree.dist == dist_before
            assert tree.parent_link == parents_before
        # Either way the tree must agree with a from-scratch build.
        fresh = SpfTree(net, 0, tree.costs.copy())
        for node in net.nodes:
            if math.isinf(fresh.dist[node]):
                assert math.isinf(tree.dist[node])
            else:
                assert tree.dist[node] == pytest.approx(fresh.dist[node])
