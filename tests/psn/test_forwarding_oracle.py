"""The data plane against a from-scratch Dijkstra, through a failure.

Every PSN forwards on a table resolved from a tree that only ever saw
batched repairs.  After a link failure, and again after its restore,
every lookup in each node's table must equal the next hop of a fresh
:class:`~repro.routing.spf.SpfTree` built on that node's own cost table
and the current topology -- an oracle outside the repair path.
"""

from repro.metrics import HopNormalizedMetric
from repro.routing import SpfTree, compile_forwarding_table
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_two_region_network
from repro.traffic import TrafficMatrix


def _assert_tables_match_dijkstra(simulation):
    network = simulation.network
    for node_id, psn in simulation.psns.items():
        fresh = SpfTree(network, node_id, psn.costs.copy())
        expected = [fresh.next_hop_link(dest) for dest in network.nodes]
        assert compile_forwarding_table(psn.tree) == expected, node_id
        table = psn._forwarding
        if table is not None:
            assert [table[dest] for dest in network.nodes] == expected, \
                node_id


def _two_region_simulation():
    built = build_two_region_network(nodes_per_region=3)
    traffic = TrafficMatrix.two_region(
        built.west_ids, built.east_ids, inter_region_bps=60_000.0
    )
    simulation = NetworkSimulation(
        built.network, HopNormalizedMetric(), traffic,
        ScenarioConfig(duration_s=90.0, warmup_s=10.0, seed=5),
    )
    return simulation, built.bridge_a[0].link_id


def test_forwarding_tables_match_dijkstra_through_failure_and_restore():
    simulation, bridge = _two_region_simulation()
    simulation.fail_circuit_at(bridge, 30.0)
    simulation.restore_circuit_at(bridge, 60.0)

    # run() flushes every buffered update before it returns, so each
    # tree has absorbed everything its node has heard.
    simulation.run(until_s=50.0)
    assert not simulation.network.link(bridge).up
    _assert_tables_match_dijkstra(simulation)

    report = simulation.run()
    assert simulation.network.link(bridge).up
    assert report.delivered_packets > 0
    _assert_tables_match_dijkstra(simulation)


class _CountingAdjacency(list):
    """A per-node adjacency list that counts the rows read from it."""

    reads = 0

    def __getitem__(self, node):
        self.reads += 1
        return super().__getitem__(node)


def test_every_tree_reads_the_one_network_adjacency():
    """Repairs walk the network's own link lists: no tree holds a copy,
    and a failure's detach-and-reseed reads the shared lists."""
    simulation, bridge = _two_region_simulation()
    network = simulation.network
    network.out_adjacency = _CountingAdjacency(network.out_adjacency)
    network.in_adjacency = _CountingAdjacency(network.in_adjacency)
    simulation.fail_circuit_at(bridge, 30.0)
    simulation.run(until_s=50.0)

    assert network.out_adjacency.reads > 0
    assert network.in_adjacency.reads > 0
    for node_id, psn in simulation.psns.items():
        tree = psn.tree
        assert tree.network is network, node_id
        assert set(vars(tree)) == {
            "network", "root", "costs", "stats", "dist", "parent_link",
        }, node_id
