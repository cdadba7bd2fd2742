"""Unit tests for full SPF computation and queries."""

import pytest

from repro.routing import CostTable, SpfTree, UNREACHABLE
from repro.topology import Network, build_ring_network, line_type


def square_network():
    """A 4-cycle A-B-C-D with a diagonal A-C."""
    net = Network("square")
    a, b, c, d = (net.add_node(x).node_id for x in "ABCD")
    net.add_circuit(a, b, line_type("56K-T"))  # links 0,1
    net.add_circuit(b, c, line_type("56K-T"))  # links 2,3
    net.add_circuit(c, d, line_type("56K-T"))  # links 4,5
    net.add_circuit(d, a, line_type("56K-T"))  # links 6,7
    net.add_circuit(a, c, line_type("56K-T"))  # links 8,9
    return net


def test_distances_on_uniform_square():
    net = square_network()
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    assert tree.dist[0] == 0.0
    assert tree.dist[1] == 1.0
    assert tree.dist[2] == 1.0  # via the diagonal
    assert tree.dist[3] == 1.0


def test_next_hop_links_leave_root():
    net = square_network()
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    for dest in (1, 2, 3):
        link = net.link(tree.next_hop_link(dest))
        assert link.src == 0


def test_next_hop_none_for_root():
    net = square_network()
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    assert tree.next_hop_link(0) is None


def test_costs_reroute_around_expensive_link():
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    costs[8] = 10.0  # diagonal A->C now expensive
    tree = SpfTree(net, 0, costs)
    assert tree.dist[2] == 2.0
    assert tree.path_nodes(2) in ([0, 1, 2], [0, 3, 2])


def test_path_links_and_nodes_consistent():
    net = square_network()
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    links = tree.path_links(2)
    nodes = tree.path_nodes(2)
    assert len(links) == len(nodes) - 1
    for link_id, (src, dst) in zip(links, zip(nodes, nodes[1:])):
        link = net.link(link_id)
        assert (link.src, link.dst) == (src, dst)


def test_hop_count():
    net = build_ring_network(6)
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    assert tree.hop_count(0) == 0
    assert tree.hop_count(1) == 1
    assert tree.hop_count(3) == 3  # opposite side of the ring


def test_uses_link():
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    costs[8] = 10.0
    tree = SpfTree(net, 0, costs)
    assert not tree.uses_link(2, 8)


def test_down_link_is_unreachable_cost():
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    for link_id in (0, 7, 8):  # every link out of A
        costs[link_id] = UNREACHABLE
    tree = SpfTree(net, 0, costs)
    for dest in (1, 2, 3):
        assert not tree.reachable(dest)
        assert tree.next_hop_link(dest) is None
        assert tree.path_links(dest) == []
        assert tree.path_nodes(dest) == []


def test_unknown_root_rejected():
    net = square_network()
    with pytest.raises(ValueError):
        SpfTree(net, 99, CostTable.uniform(net, 1.0))


def test_negative_cost_rejected():
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    with pytest.raises(ValueError):
        costs[0] = -1.0


def test_nan_cost_rejected():
    """NaN fails every comparison, so a ``cost < 0`` guard let it in."""
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    with pytest.raises(ValueError):
        costs[0] = float("nan")
    assert costs[0] == 1.0


def test_shortest_paths_are_hereditary():
    """Every subpath of a shortest path is a shortest path (the property
    destination-based forwarding depends on)."""
    net = square_network()
    costs = CostTable.uniform(net, 1.0)
    costs[2] = 0.5
    costs[8] = 1.8
    tree = SpfTree(net, 0, costs)
    for dest in net.nodes:
        nodes = tree.path_nodes(dest)
        for intermediate in nodes[1:-1]:
            prefix_len = nodes.index(intermediate)
            assert tree.path_nodes(intermediate) == nodes[:prefix_len + 1]


def test_stats_count_full_computations():
    net = square_network()
    tree = SpfTree(net, 0, CostTable.uniform(net, 1.0))
    assert tree.stats.full_computations == 1
    tree.recompute()
    assert tree.stats.full_computations == 2


def test_cost_table_from_metric():
    from repro.metrics import HopNormalizedMetric

    net = square_network()
    costs = CostTable.from_metric(net, HopNormalizedMetric())
    assert all(c == 30.0 for c in costs.costs)


def test_tree_against_networkx():
    """Cross-check distances with networkx's Dijkstra on a bigger graph."""
    import networkx as nx

    from repro.topology import build_arpanet_1987

    net = build_arpanet_1987()
    costs = CostTable([(i % 7) + 1.0 for i in range(len(net.links))])
    tree = SpfTree(net, 0, costs)

    graph = nx.DiGraph()
    for link in net.links:
        cost = costs[link.link_id]
        if (not graph.has_edge(link.src, link.dst)
                or graph[link.src][link.dst]["weight"] > cost):
            graph.add_edge(link.src, link.dst, weight=cost)
    expected = nx.single_source_dijkstra_path_length(graph, 0)
    for node in net.nodes:
        assert tree.dist[node] == pytest.approx(expected[node])
