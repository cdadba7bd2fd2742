"""Tests for the equal-cost multipath extension (paper section 4.5)."""

import pytest

from repro.routing import CostTable, MultipathRouter
from repro.topology import Network, build_grid_network, build_ring_network, line_type


def diamond_network():
    """S with two equal 2-hop paths to T (via M1 or M2)."""
    net = Network("diamond")
    s = net.add_node("S").node_id
    m1 = net.add_node("M1").node_id
    m2 = net.add_node("M2").node_id
    t = net.add_node("T").node_id
    for a, b in ((s, m1), (s, m2), (m1, t), (m2, t)):
        net.add_circuit(a, b, line_type("56K-T"))
    return net, s, m1, m2, t


def test_equal_paths_both_candidates():
    net, s, m1, m2, t = diamond_network()
    router = MultipathRouter(net, s, CostTable.uniform(net, 30.0))
    options = router.next_hop_links(t)
    dsts = {net.link(l).dst for l in options}
    assert dsts == {m1, m2}
    assert router.path_diversity(t) == 2


def test_unequal_paths_single_candidate():
    net, s, m1, m2, t = diamond_network()
    costs = CostTable.uniform(net, 30.0)
    costs[net.links_between(s, m2)[0].link_id] = 60.0
    router = MultipathRouter(net, s, costs)
    options = router.next_hop_links(t)
    assert {net.link(l).dst for l in options} == {m1}


def test_slack_keeps_slightly_longer_path():
    net, s, m1, m2, t = diamond_network()
    costs = CostTable.uniform(net, 30.0)
    costs[net.links_between(s, m2)[0].link_id] = 40.0  # +10 units
    strict = MultipathRouter(net, s, costs.copy(), slack=0.0)
    loose = MultipathRouter(net, s, costs.copy(), slack=15.0)
    assert strict.path_diversity(t) == 1
    assert loose.path_diversity(t) == 2


def test_packet_mode_round_robins():
    net, s, m1, m2, t = diamond_network()
    router = MultipathRouter(net, s, CostTable.uniform(net, 30.0),
                             mode="packet")
    picks = [router.next_hop_link(t) for _ in range(6)]
    first_hops = [net.link(l).dst for l in picks]
    assert first_hops.count(m1) == 3
    assert first_hops.count(m2) == 3
    assert first_hops[0] != first_hops[1]  # alternating


def test_flow_mode_is_sticky_per_flow():
    net, s, m1, m2, t = diamond_network()
    router = MultipathRouter(net, s, CostTable.uniform(net, 30.0),
                             mode="flow")
    picks_a = {router.next_hop_link(t, src=17) for _ in range(5)}
    picks_b = {router.next_hop_link(t, src=18) for _ in range(5)}
    assert len(picks_a) == 1
    assert len(picks_b) == 1


def test_update_cost_recomputes():
    net, s, m1, m2, t = diamond_network()
    costs = CostTable.uniform(net, 30.0)
    router = MultipathRouter(net, s, costs)
    assert router.path_diversity(t) == 2
    costs[net.links_between(s, m1)[0].link_id] = 90.0
    router.recompute()
    assert router.path_diversity(t) == 1


def test_unreachable_destination():
    net, s, m1, m2, t = diamond_network()
    costs = CostTable.uniform(net, 30.0)
    for link in net.out_links(s):
        costs[link.link_id] = float("inf")
    router = MultipathRouter(net, s, costs)
    assert router.next_hop_link(t) is None
    assert router.next_hop_links(t) == []


def test_self_destination():
    net, s, *_rest = diamond_network()
    router = MultipathRouter(net, s, CostTable.uniform(net, 30.0))
    assert router.next_hop_link(s) is None


def test_rejects_bad_parameters():
    net, s, *_rest = diamond_network()
    with pytest.raises(ValueError):
        MultipathRouter(net, s, CostTable.uniform(net, 30.0), mode="magic")
    with pytest.raises(ValueError):
        MultipathRouter(net, s, CostTable.uniform(net, 30.0), slack=-1.0)


def test_grid_has_rich_diversity():
    net = build_grid_network(3, 3)
    router = MultipathRouter(net, 0, CostTable.uniform(net, 30.0))
    # Opposite corner of the grid: both axes offer equal-cost first hops.
    assert router.path_diversity(8) == 2


def test_loop_freedom_with_safe_slack():
    """Forwarding along ECMP candidates always reaches the destination
    when slack < min link cost."""
    net = build_grid_network(3, 4)
    costs = CostTable([30.0 + (i % 5) for i in range(len(net.links))])
    routers = {
        n: MultipathRouter(net, n, costs.copy(), mode="packet", slack=15.0)
        for n in net.nodes
    }
    for src in net.nodes:
        for dst in net.nodes:
            if src == dst:
                continue
            node = src
            for _hop in range(len(net.nodes) + 1):
                if node == dst:
                    break
                link_id = routers[node].next_hop_link(dst, src=src)
                assert link_id is not None
                node = net.link(link_id).dst
            assert node == dst


def test_single_path_on_ring_matches_spf():
    """Where no equal-cost alternatives exist, ECMP = plain SPF."""
    from repro.routing import SpfTree

    net = build_ring_network(5)
    costs = CostTable([30.0 + i for i in range(len(net.links))])
    router = MultipathRouter(net, 0, costs.copy())
    tree = SpfTree(net, 0, costs.copy())
    for dest in net.nodes:
        if dest == 0:
            continue
        assert router.path_diversity(dest) == 1
        assert router.next_hop_link(dest) == tree.next_hop_link(dest)
