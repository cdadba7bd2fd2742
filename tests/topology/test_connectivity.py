"""``Network.is_connected()`` against networkx as the outside oracle.

The simulator's own check is a stdlib reachability pass (so building a
topology does not import networkx); strong connectivity as networkx
defines it is what it must keep computing.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    Network,
    build_arpanet_1987,
    build_grid_network,
    build_milnet_1987,
    build_random_network,
    build_ring_network,
    build_string_network,
    build_two_region_network,
    line_type,
)


def oracle(network: Network) -> bool:
    if not network.nodes:
        return True  # networkx calls the null graph a pointless concept
    return nx.is_strongly_connected(network.to_networkx())


def circuits(network: Network):
    """One link id per full-duplex circuit."""
    return [
        link.link_id for link in network.links
        if link.reverse_id is None or link.link_id < link.reverse_id
    ]


@pytest.mark.parametrize("build", [
    build_arpanet_1987,
    build_milnet_1987,
    lambda: build_two_region_network().network,
    lambda: build_ring_network(6),
    lambda: build_string_network(5),
    lambda: build_grid_network(4, 3),
    lambda: build_random_network(64, extra_circuits=16, seed=2),
])
def test_builtin_topologies_agree_with_networkx(build):
    network = build()
    assert network.is_connected() is True
    assert oracle(network) is True


def test_each_single_circuit_failure_on_the_arpanet():
    network = build_arpanet_1987()
    for link_id in circuits(network):
        network.set_circuit_state(link_id, up=False)
        assert network.is_connected() == oracle(network), link_id
        network.set_circuit_state(link_id, up=True)


def test_empty_and_single_node_networks():
    network = Network()
    assert network.is_connected() is True
    network.add_node()
    assert network.is_connected() is True
    assert oracle(network) is True
    network.add_node()
    assert network.is_connected() is False
    assert oracle(network) is False


def test_reachable_forward_but_not_backward():
    """A -> B -> C with nothing leading back: every node is reachable
    from A, A from none of them."""
    network = Network()
    a, b, c = (network.add_node().node_id for _ in range(3))
    line = line_type("56K-T")
    network.add_link(a, b, line)
    network.add_link(b, c, line)
    assert network.is_connected() is False
    assert oracle(network) is False
    closing = network.add_link(c, a, line)
    assert network.is_connected() is True
    assert oracle(network) is True
    closing.up = False
    assert network.is_connected() is False
    assert oracle(network) is False


def test_direct_up_write_is_seen_past_the_out_links_cache():
    """a <-> b: with the up-links cache filled, taking a -> b down by
    writing ``link.up`` leaves b reaching a but not a reaching b."""
    network = Network()
    a, b = (network.add_node().node_id for _ in range(2))
    forward, _ = network.add_circuit(a, b, line_type("56K-T"))
    assert network.is_connected() is True
    assert network.out_links(a) == [forward]
    forward.up = False
    assert network.is_connected() is False
    assert oracle(network) is False


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    extra=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    failures=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                      max_size=6),
)
def test_property_random_networks_with_failed_circuits(
    n, extra, seed, failures
):
    network = build_random_network(n, extra_circuits=extra, seed=seed)
    assert network.is_connected() is True
    ids = circuits(network)
    for pick in failures:
        network.set_circuit_state(ids[pick % len(ids)], up=False)
        assert network.is_connected() == oracle(network)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    edges=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.booleans()),
        max_size=24,
    ),
)
def test_property_arbitrary_simplex_graphs(n, edges):
    """Directed graphs with no duplex structure at all, some links down."""
    network = Network()
    for _ in range(n):
        network.add_node()
    line = line_type("56K-T")
    for src, dst, up in edges:
        src, dst = src % n, dst % n
        if src != dst:
            network.add_link(src, dst, line).up = up
    assert network.is_connected() == oracle(network)
