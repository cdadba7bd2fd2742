"""Unit tests for the 1969 distributed Bellman-Ford baseline."""

import math

import pytest

from repro.routing import BellmanFordNode, find_routing_loop, queue_length_metric
from repro.routing.bellman_ford import INFINITY_THRESHOLD, QUEUE_METRIC_CONSTANT
from repro.topology import build_ring_network, build_string_network


def converge(network, metrics_per_node, rounds=None):
    """Run synchronous exchange rounds until convergence.

    ``metrics_per_node[node]`` maps neighbour -> link metric.
    """
    nodes = {n: BellmanFordNode(network, n) for n in network.nodes}
    rounds = rounds or 2 * len(network.nodes)
    for _ in range(rounds):
        if not exchange(nodes, metrics_per_node):
            break
    return nodes


def exchange(nodes, metrics_per_node):
    """One synchronous round: each node hears the vectors its linked
    neighbours held at the round's start, then re-minimizes."""
    vectors = {n: node.snapshot() for n, node in nodes.items()}
    changed = False
    for n, node in nodes.items():
        for neighbour in metrics_per_node[n]:
            node.receive_vector(neighbour, vectors[neighbour])
        changed |= node.recompute(metrics_per_node[n])
    return changed


def routing_loop(nodes, dest):
    """The forwarding cycle the nodes' tables form toward ``dest``."""
    return find_routing_loop(nodes, dest, lambda n: nodes[n].next_hop(dest))


def uniform_metrics(network, value=1.0):
    return {
        n: {nb: value for nb in network.neighbors(n)}
        for n in network.nodes
    }


def test_queue_length_metric():
    assert queue_length_metric(0) == 4.0
    assert queue_length_metric(10) == 14.0
    with pytest.raises(ValueError):
        queue_length_metric(-1)


def test_converges_to_shortest_paths_on_string():
    net = build_string_network(5)
    nodes = converge(net, uniform_metrics(net))
    assert nodes[0].table.distance[4] == pytest.approx(4.0)
    assert nodes[0].next_hop(4) == 1


def test_converges_on_ring_both_ways():
    net = build_ring_network(6)
    nodes = converge(net, uniform_metrics(net))
    assert nodes[0].table.distance[3] == pytest.approx(3.0)
    assert nodes[0].table.distance[5] == pytest.approx(1.0)
    assert nodes[0].next_hop(5) == 5


def test_self_distance_zero():
    net = build_ring_network(4)
    nodes = converge(net, uniform_metrics(net))
    for n, node in nodes.items():
        assert node.table.distance[n] == 0.0
        assert node.next_hop(n) is None


def test_rejects_own_vector():
    net = build_ring_network(4)
    node = BellmanFordNode(net, 0)
    with pytest.raises(ValueError):
        node.receive_vector(0, {})


def test_no_loop_after_convergence():
    net = build_ring_network(6)
    nodes = converge(net, uniform_metrics(net))
    for dest in net.nodes:
        assert routing_loop(nodes, dest) is None


def test_volatile_metric_causes_transient_loops():
    """The paper's complaint: with a rapidly-changing metric and stale
    neighbour tables, forwarding loops form."""
    net = build_ring_network(4)
    metrics = uniform_metrics(net)
    nodes = converge(net, metrics)

    # Queue spike: node 1's link toward 2 suddenly looks terrible, and
    # node 1 re-minimizes before its neighbours hear about anything.
    metrics[1][2] = queue_length_metric(400)
    metrics[1][0] = queue_length_metric(0)
    nodes[1].recompute(metrics[1])
    # Node 1 now routes to 2 the long way (via 0) using 0's *stale* table,
    # while 0 still routes to 2 via 1: a loop.
    cycle = routing_loop(nodes, dest=2)
    assert cycle is not None
    assert set(cycle) == {0, 1}


def test_unreachable_when_partitioned():
    net = build_string_network(3)
    metrics = uniform_metrics(net)
    # Sever 0-1 in both directions by removing the neighbour metrics.
    del metrics[0][1]
    del metrics[1][0]
    nodes = converge(net, metrics)
    assert math.isinf(nodes[0].table.distance[2])
    assert nodes[0].next_hop(2) is None


def test_counting_to_infinity_is_bounded():
    """Distances blow up after a partition but are cut off at the
    INFINITY_THRESHOLD rather than counting forever."""
    net = build_string_network(3)
    metrics = uniform_metrics(net)
    nodes = converge(net, metrics)
    assert nodes[2].table.distance[0] == pytest.approx(2.0)
    # Partition node 0 away; keep exchanging stale vectors 1 <-> 2.
    del metrics[1][0]
    for _ in range(3000):
        vectors = {n: node.snapshot() for n, node in nodes.items()}
        for n in (1, 2):
            for neighbour in net.neighbors(n):
                if neighbour in metrics[n]:
                    nodes[n].receive_vector(neighbour, vectors[neighbour])
            nodes[n].recompute(metrics[n])
    assert math.isinf(nodes[2].table.distance[0])


def test_count_to_infinity_meets_its_bound():
    """The textbook distance-vector oracle (RFC 1058 section 2.2): cut a
    node off a converged ring and the survivors' stale vectors bounce.
    No distance to the lost node ever falls, the smallest rises by at
    least the metric constant per exchange, and every node declares it
    unreachable within INFINITY_THRESHOLD / QUEUE_METRIC_CONSTANT
    exchanges."""
    net = build_ring_network(6)
    metrics = uniform_metrics(net, queue_length_metric(0))  # idle queues
    nodes = converge(net, metrics)
    lost = 0
    for neighbour in net.neighbors(lost):
        del metrics[neighbour][lost]
    survivors = {n: node for n, node in nodes.items() if n != lost}
    bound = math.ceil(INFINITY_THRESHOLD / QUEUE_METRIC_CONSTANT)

    def distances():
        return {n: node.table.distance[lost] for n, node in survivors.items()}

    before = distances()
    assert max(before.values()) < INFINITY_THRESHOLD
    for _ in range(bound):
        exchange(survivors, metrics)
        after = distances()
        assert all(after[n] >= before[n] for n in survivors)
        assert min(after.values()) >= (
            min(before.values()) + QUEUE_METRIC_CONSTANT
        )
        before = after
    assert all(math.isinf(d) for d in before.values())
