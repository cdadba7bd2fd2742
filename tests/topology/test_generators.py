"""Tests for synthetic topology generators and the two-region network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    build_grid_network,
    build_random_network,
    build_ring_network,
    build_string_network,
    build_two_region_network,
    line_type,
)


def test_string_network_shape():
    net = build_string_network(5)
    assert len(net) == 5
    assert len(net.links) == 8  # 4 circuits x 2 directions
    assert len(net.neighbors(0)) == 1
    assert len(net.neighbors(2)) == 2


def test_string_minimum_size():
    with pytest.raises(ValueError):
        build_string_network(1)


def test_ring_network_shape():
    net = build_ring_network(6)
    assert len(net) == 6
    assert len(net.links) == 12
    for node in net:
        assert len(net.neighbors(node.node_id)) == 2


def test_ring_minimum_size():
    with pytest.raises(ValueError):
        build_ring_network(2)


def test_grid_network_shape():
    net = build_grid_network(3, 4)
    assert len(net) == 12
    # circuits: 3 rows x 3 horizontal + 2 x 4 vertical = 17
    assert len(net.links) == 34


def test_grid_minimum_size():
    with pytest.raises(ValueError):
        build_grid_network(1, 1)


def test_random_network_is_connected_and_seeded():
    net_a = build_random_network(12, extra_circuits=5, seed=3)
    net_b = build_random_network(12, extra_circuits=5, seed=3)
    assert net_a.is_connected()
    assert [
        (l.src, l.dst) for l in net_a.links
    ] == [(l.src, l.dst) for l in net_b.links]


@pytest.mark.parametrize("nodes, extra, seed, links, digest", [
    # perfbench's rand128_steady network.
    (128, 32, 3, 318,
     "b7f5a938407652e692f0c658f6805f7429b6fb64709989cc0e0fcb0f3db859f9"),
    # The rand256 and rand512 scenarios.
    (256, 64, 11, 638,
     "30240dd27688b1885f3188bcd0d2702adbb531272501cf086cbc92ea72bf5084"),
    (512, 128, 17, 1278,
     "712c330a4dd2b81ec5d381d1cf8fc6bf593bab951415651b0e7c4cf82560c8a6"),
], ids=["rand128", "rand256", "rand512"])
def test_random_network_link_lists_are_pinned(nodes, extra, seed, links,
                                              digest):
    """The generated (src, dst) link lists never move: a faster
    generator must make the same draws in the same order."""
    import hashlib

    net = build_random_network(nodes, extra_circuits=extra, seed=seed,
                               line=line_type("T1-T"))
    pairs = [(link.src, link.dst) for link in net.links]
    assert len(pairs) == links
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


def test_random_network_different_seeds_differ():
    net_a = build_random_network(12, extra_circuits=5, seed=1)
    net_b = build_random_network(12, extra_circuits=5, seed=2)
    assert [
        (l.src, l.dst) for l in net_a.links
    ] != [(l.src, l.dst) for l in net_b.links]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    extra=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_random_network_always_connected(n, extra, seed):
    net = build_random_network(n, extra_circuits=extra, seed=seed)
    assert net.is_connected()
    net.validate()


def test_two_region_bridges_are_only_crossings():
    built = build_two_region_network(nodes_per_region=3)
    net = built.network
    west = set(built.west_ids)
    east = set(built.east_ids)
    crossings = [
        l for l in net.links
        if (l.src in west) != (l.dst in west)
    ]
    assert len(crossings) == 4  # two circuits x two directions
    bridge_ids = {
        built.bridge_a[0].link_id, built.bridge_a[1].link_id,
        built.bridge_b[0].link_id, built.bridge_b[1].link_id,
    }
    assert {l.link_id for l in crossings} == bridge_ids
    assert west.isdisjoint(east)


def test_two_region_bridges_identical():
    built = build_two_region_network()
    a = built.bridge_a[0]
    b = built.bridge_b[0]
    assert a.line_type == b.line_type
    assert a.propagation_s == b.propagation_s


def test_two_region_intra_faster_than_bridge():
    built = build_two_region_network()
    intra = built.network.links[0]
    assert intra.bandwidth_bps > built.bridge_a[0].bandwidth_bps


def test_two_region_minimum_size():
    with pytest.raises(ValueError):
        build_two_region_network(nodes_per_region=1)


def test_generators_accept_custom_line():
    net = build_ring_network(4, line=line_type("9.6K-S"))
    assert all(l.line_type.name == "9.6K-S" for l in net.links)
