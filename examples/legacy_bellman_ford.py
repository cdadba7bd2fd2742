#!/usr/bin/env python3
"""The original 1969 ARPANET routing algorithm, and why it was replaced.

Runs the distributed Bellman-Ford computation with its instantaneous-
queue-length metric on a small ring, then demonstrates the failure mode
the paper recounts: a queue spike plus stale neighbour tables produces a
forwarding *loop* -- something SPF's consistent link-state view
structurally avoids.

Run:  python examples/legacy_bellman_ford.py
"""

from repro.routing import (
    BellmanFordNode,
    find_routing_loop,
    queue_length_metric,
)
from repro.topology import build_ring_network


def exchange_round(network, nodes, metrics):
    vectors = {n: node.snapshot() for n, node in nodes.items()}
    changed = False
    for n, node in nodes.items():
        for neighbour in network.neighbors(n):
            node.receive_vector(neighbour, vectors[neighbour])
        changed |= node.recompute(metrics[n])
    return changed


def main() -> None:
    network = build_ring_network(5)
    nodes = {n: BellmanFordNode(network, n) for n in network.nodes}
    # Idle queues everywhere: metric = 0 + constant.
    metrics = {
        n: {nb: queue_length_metric(0) for nb in network.neighbors(n)}
        for n in network.nodes
    }

    rounds = 0
    while exchange_round(network, nodes, metrics):
        rounds += 1
    print(f"converged after {rounds} exchange rounds (2/3 s each)")
    print("distances from node 0:",
          {d: v for d, v in nodes[0].table.distance.items()})

    # Now the 1969 failure mode: a queue spike at node 1 toward node 2.
    print("\nqueue spike: node 1's queue toward node 2 jumps to 300 "
          "packets...")
    metrics[1][2] = queue_length_metric(300)
    metrics[1][0] = queue_length_metric(0)
    # Node 1 re-minimizes immediately; its neighbours still hold stale
    # tables from before the spike.
    nodes[1].recompute(metrics[1])

    cycle = find_routing_loop(nodes, 2, lambda n: nodes[n].next_hop(2))
    print(f"forwarding loop toward node 2? {cycle is not None} "
          f"(cycle: {cycle})")
    print("node 0 thinks: via", nodes[0].next_hop(2),
          "| node 1 thinks: via", nodes[1].next_hop(2))

    print("\nAfter more exchange rounds the tables re-converge -- but "
          "with the\ninstantaneous metric fluctuating every 2/3 s, the "
          "loops keep re-forming.\nThis is why the ARPANET moved to SPF "
          "(1979) and then to the revised\nmetric this library "
          "reproduces (1987).")


if __name__ == "__main__":
    main()
