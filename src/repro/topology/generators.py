"""Synthetic topology generators.

These back the property-based tests (routing invariants must hold on *any*
connected topology) and the ablation benchmarks.  All generators return
validated, strongly connected :class:`~repro.topology.Network` objects
built from full-duplex circuits.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import Optional

from repro.topology.graph import Network
from repro.topology.linetypes import LineType, line_type


def _default_line() -> LineType:
    return line_type("56K-T")


def build_string_network(n: int, line: Optional[LineType] = None) -> Network:
    """A linear chain of ``n`` nodes (no alternate paths at all)."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    line = line or _default_line()
    network = Network(name=f"string-{n}")
    ids = [network.add_node().node_id for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        network.add_circuit(a, b, line)
    network.validate()
    return network


def build_ring_network(n: int, line: Optional[LineType] = None) -> Network:
    """A cycle of ``n`` nodes (exactly two paths between any pair)."""
    if n < 3:
        raise ValueError("need at least 3 nodes")
    line = line or _default_line()
    network = Network(name=f"ring-{n}")
    ids = [network.add_node().node_id for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        network.add_circuit(a, b, line)
    network.add_circuit(ids[-1], ids[0], line)
    network.validate()
    return network


def build_grid_network(
    rows: int, cols: int, line: Optional[LineType] = None
) -> Network:
    """A ``rows x cols`` mesh (many equal-length alternate paths)."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least 2 nodes")
    line = line or _default_line()
    network = Network(name=f"grid-{rows}x{cols}")
    ids = [
        [network.add_node(f"g{r}-{c}").node_id for c in range(cols)]
        for r in range(rows)
    ]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_circuit(ids[r][c], ids[r][c + 1], line)
            if r + 1 < rows:
                network.add_circuit(ids[r][c], ids[r + 1][c], line)
    network.validate()
    return network


def build_random_network(
    n: int,
    extra_circuits: int = 0,
    seed: int = 0,
    line: Optional[LineType] = None,
) -> Network:
    """A random connected network: a random spanning tree plus extras.

    The spanning tree guarantees connectivity; ``extra_circuits`` distinct
    non-tree circuits are then added to create alternate paths.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    line = line or _default_line()
    rng = random.Random(seed)
    network = Network(name=f"random-{n}-{extra_circuits}-{seed}")
    ids = [network.add_node().node_id for _ in range(n)]

    shuffled = ids[:]
    rng.shuffle(shuffled)
    # Each anchor is drawn from the connected nodes in ascending order,
    # kept sorted as nodes join rather than re-sorted per draw.
    connected = [shuffled[0]]
    tree_pairs = set()
    for node in shuffled[1:]:
        anchor = rng.choice(connected)
        network.add_circuit(anchor, node, line)
        tree_pairs.add((anchor, node) if anchor < node else (node, anchor))
        insort(connected, node)

    # Every non-tree pair (a < b, in id order), shuffled; the first
    # ``extra_circuits`` become circuits.
    candidates = [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1:]
        if (a, b) not in tree_pairs
    ]
    rng.shuffle(candidates)
    for a, b in candidates[:extra_circuits]:
        network.add_circuit(a, b, line)

    network.validate()
    return network
