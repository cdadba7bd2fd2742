"""Network, node and (simplex) link model.

A :class:`Network` is a directed multigraph of PSNs.  Following the paper's
terminology, a *link* is the simplex medium between two PSNs; the common
case of a full-duplex circuit is created with :meth:`Network.add_circuit`,
which produces the two directed links and records them as *reverse* of each
other.

The class is a plain data container: queueing lives in :mod:`repro.psn`,
costs in :mod:`repro.metrics`, and route computation in :mod:`repro.routing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.topology.linetypes import LineType

if TYPE_CHECKING:  # pragma: no cover - only to_networkx() loads networkx
    import networkx as nx


#: One node's up links as an SPF scan reads them: ``(link_id, far end)``
#: pairs (see :meth:`Network.up_rows`).
Row = Tuple[Tuple[int, int], ...]


class TopologyError(ValueError):
    """Raised for malformed topology construction."""


@dataclass(frozen=True)
class Node:
    """A packet switching node (PSN)."""

    node_id: int
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class Link:
    """A simplex communication medium from one PSN to another.

    Parameters
    ----------
    link_id:
        Index of this link in its network (stable, dense).
    src, dst:
        Endpoint node ids.
    line_type:
        The line configuration class of the circuit.
    propagation_s:
        One-way propagation delay; defaults to the line type's nominal value.
    """

    link_id: int
    src: int
    dst: int
    line_type: LineType
    propagation_s: float = field(default=-1.0)
    #: link_id of the opposite direction of the same circuit, if duplex.
    reverse_id: Optional[int] = None
    #: administrative up/down state (links can fail and recover).
    up: bool = True

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TopologyError(f"self-link at node {self.src}")
        if self.propagation_s < 0:
            self.propagation_s = self.line_type.default_propagation_s

    @property
    def bandwidth_bps(self) -> float:
        """Combined bandwidth of the link's trunks."""
        return self.line_type.bandwidth_bps

    @property
    def endpoints(self) -> Tuple[int, int]:
        """``(src, dst)`` node ids."""
        return (self.src, self.dst)

    def __str__(self) -> str:
        return f"link{self.link_id}({self.src}->{self.dst} {self.line_type})"


class Network:
    """A directed multigraph of PSNs and simplex links."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self.nodes: Dict[int, Node] = {}
        self.links: List[Link] = []
        #: Every link leaving / entering each node, indexed by node id
        #: (ids are dense).  Down links are *included* -- readers check
        #: ``link.up`` where it matters -- because the link set only
        #: grows while up/down flags toggle freely; only
        #: :meth:`add_link` changes these lists.  Treat them as
        #: read-only; SPF walks ``out_adjacency`` to detach subtrees
        #: (a tree may hang off a link that has just failed) and scans
        #: :meth:`up_rows` for everything else.
        self.out_adjacency: List[List[Link]] = []
        self.in_adjacency: List[List[Link]] = []
        self._by_name: Dict[str, int] = {}
        #: Bumped on any structural or up/down change; the shared SPF
        #: trees (see repro.routing.spf_cache) key on it, so a link failure
        #: or recovery implicitly invalidates every tree computed before it.
        self.topology_version = 0
        # Up-links-only view of ``out_adjacency`` behind out_links(),
        # rebuilt lazily after each topology change: the 1969
        # simulator's neighbour exchange, the multipath router and the
        # flood plans ask for the same lists again and again.  SPF
        # scans up_rows() instead.
        self._up_out_cache: Dict[int, List[Link]] = {}
        # up_rows() and the topology version it was built for.
        self._up_rows: Tuple[List[Row], List[Row]] = ([], [])
        self._up_rows_version = -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: Optional[str] = None) -> Node:
        """Create a node; names default to ``PSN<n>`` and must be unique."""
        node_id = len(self.nodes)
        if name is None:
            name = f"PSN{node_id}"
        if name in self._by_name:
            raise TopologyError(f"duplicate node name {name!r}")
        node = Node(node_id, name)
        self.nodes[node_id] = node
        self.out_adjacency.append([])
        self.in_adjacency.append([])
        self._by_name[name] = node_id
        return node

    def add_link(
        self,
        src: int,
        dst: int,
        line_type: LineType,
        propagation_s: float = -1.0,
    ) -> Link:
        """Add one simplex link.  Most callers want :meth:`add_circuit`."""
        self._require_node(src)
        self._require_node(dst)
        link = Link(len(self.links), src, dst, line_type, propagation_s)
        self.links.append(link)
        self.out_adjacency[src].append(link)
        self.in_adjacency[dst].append(link)
        self.topology_version += 1
        self._up_out_cache.clear()
        return link

    def add_circuit(
        self,
        a: int,
        b: int,
        line_type: LineType,
        propagation_s: float = -1.0,
    ) -> Tuple[Link, Link]:
        """Add a full-duplex circuit: two simplex links, mutual reverses."""
        forward = self.add_link(a, b, line_type, propagation_s)
        backward = self.add_link(b, a, line_type, propagation_s)
        forward.reverse_id = backward.link_id
        backward.reverse_id = forward.link_id
        return forward, backward

    def _require_node(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise TopologyError(f"unknown node id {node_id}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node_by_name(self, name: str) -> Node:
        """Return the node named ``name``."""
        try:
            return self.nodes[self._by_name[name]]
        except KeyError:
            raise KeyError(f"no node named {name!r} in {self.name}") from None

    def link(self, link_id: int) -> Link:
        """Return the link with the given id."""
        return self.links[link_id]

    def out_links(self, node_id: int, include_down: bool = False) -> List[Link]:
        """Links leaving ``node_id`` (up links only, by default).

        The up-links-only list is cached until the next topology change;
        treat the result as read-only.
        """
        if include_down:
            return list(self.out_adjacency[node_id])
        cached = self._up_out_cache.get(node_id)
        if cached is None:
            cached = self._up_out_cache[node_id] = [
                link for link in self.out_adjacency[node_id] if link.up
            ]
        return cached

    def up_rows(self) -> Tuple[List[Row], List[Row]]:
        """``(out_rows, in_rows)``: each node's up links as flat pairs.

        ``out_rows[n]`` holds ``(link_id, dst)`` for every up link out
        of ``n``, ``in_rows[n]`` ``(link_id, src)`` for every up link
        into it, both in ascending link id order.  Every SPF tree of the
        network scans these rows; they are rebuilt, for all nodes at
        once, the first time they are asked for after the topology
        version moves.  Treat them as read-only.
        """
        if self._up_rows_version != self.topology_version:
            self._up_rows = (
                [tuple((link.link_id, link.dst) for link in out if link.up)
                 for out in self.out_adjacency],
                [tuple((link.link_id, link.src) for link in into if link.up)
                 for into in self.in_adjacency],
            )
            self._up_rows_version = self.topology_version
        return self._up_rows

    def in_links(self, node_id: int, include_down: bool = False) -> List[Link]:
        """Links entering ``node_id`` (up links only, by default)."""
        return [
            l for l in self.in_adjacency[node_id] if include_down or l.up
        ]

    def links_between(self, src: int, dst: int) -> List[Link]:
        """All up links from ``src`` to ``dst`` (multi-circuit aware)."""
        return [l for l in self.out_links(src) if l.dst == dst]

    def neighbors(self, node_id: int) -> List[int]:
        """Distinct nodes reachable over one up link from ``node_id``."""
        seen: List[int] = []
        for link in self.out_links(node_id):
            if link.dst not in seen:
                seen.append(link.dst)
        return seen

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"<Network {self.name!r}: {len(self.nodes)} nodes, "
            f"{len(self.links)} simplex links>"
        )

    # ------------------------------------------------------------------
    # Link state
    # ------------------------------------------------------------------
    def set_circuit_state(self, link_id: int, up: bool) -> List[Link]:
        """Bring a link and its reverse (if any) up or down.

        Returns the affected links.
        """
        link = self.links[link_id]
        affected = [link]
        link.up = up
        if link.reverse_id is not None:
            reverse = self.links[link.reverse_id]
            reverse.up = up
            affected.append(reverse)
        self.topology_version += 1
        self._up_out_cache.clear()
        return affected

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def to_networkx(self, include_down: bool = False) -> "nx.MultiDiGraph":
        """Export to a networkx multigraph (for analysis)."""
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for node in self.nodes.values():
            graph.add_node(node.node_id, name=node.name)
        for link in self.links:
            if link.up or include_down:
                graph.add_edge(
                    link.src,
                    link.dst,
                    key=link.link_id,
                    line_type=link.line_type.name,
                    bandwidth=link.bandwidth_bps,
                )
        return graph

    def is_connected(self) -> bool:
        """Whether every node can reach every other over up links.

        Strong connectivity: from any one node, every node is reachable
        following up links forward, and again following them backward.
        """
        if not self.nodes:
            return True
        start = next(iter(self.nodes))
        # Reads ``link.up`` itself, never the cached up-links lists.
        for peers in (
            lambda node: [
                l.dst for l in self.out_links(node, include_down=True) if l.up
            ],
            lambda node: [
                l.src for l in self.in_links(node, include_down=True) if l.up
            ],
        ):
            seen = {start}
            frontier = [start]
            while frontier:
                for peer in peers(frontier.pop()):
                    if peer not in seen:
                        seen.add(peer)
                        frontier.append(peer)
            if len(seen) != len(self.nodes):
                return False
        return True

    def validate(self) -> None:
        """Sanity-check invariants; raises :class:`TopologyError` on failure.

        Checks: reverse pointers are mutual and refer to the same circuit,
        link indices are dense, and the up-graph is connected.
        """
        for index, link in enumerate(self.links):
            if link.link_id != index:
                raise TopologyError(f"link id {link.link_id} at index {index}")
            if link.reverse_id is not None:
                reverse = self.links[link.reverse_id]
                if reverse.reverse_id != link.link_id:
                    raise TopologyError(f"non-mutual reverse on {link}")
                if (reverse.src, reverse.dst) != (link.dst, link.src):
                    raise TopologyError(f"reverse endpoints mismatch on {link}")
                if reverse.line_type != link.line_type:
                    raise TopologyError(f"reverse line type mismatch on {link}")
        if not self.is_connected():
            raise TopologyError(f"{self.name} is not strongly connected")
