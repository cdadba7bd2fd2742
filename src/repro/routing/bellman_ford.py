"""The original (1969) ARPANET routing algorithm.

Section 2.1 of the paper: a *distributed Bellman-Ford* shortest-path
computation.  Each node keeps a table of estimated distances to every
destination, exchanges the table with its neighbours every 2/3 second, and
takes, per destination, the minimum over neighbours of (distance via that
neighbour + local link metric).  The link metric was *"simply the
instantaneous queue length at the moment of updating plus a fixed
constant"*.

The paper lists its failure modes -- a volatile instantaneous metric,
persistent loops while the computation converges, and routing oscillation
-- which our simulation and tests reproduce; the invariant monitor counts
the loops.  :class:`BellmanFordNode` is the pure logic; a simulation
under :class:`QueueLengthMetric` runs it live, one
:class:`DistanceVectorProtocol` per PSN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Dict, Optional

from repro.psn.packet import Packet, PacketKind
from repro.routing.flooding import FloodingStats
from repro.topology.graph import Link, Network
from repro.units import BELLMAN_FORD_EXCHANGE_S

if TYPE_CHECKING:  # pragma: no cover - avoids a routing <-> psn cycle
    from repro.psn.node import Psn

#: The "fixed constant" added to the instantaneous queue length.  Helps
#: damp (but does not eliminate) oscillation; see the paper's section 2.1.
QUEUE_METRIC_CONSTANT = 4.0

#: Distances above this are treated as unreachable (poor-man's counting-
#: to-infinity bound, as in early distance-vector protocols).
INFINITY_THRESHOLD = 1000.0


def queue_length_metric(queue_length: int) -> float:
    """The 1969 link metric: instantaneous queue length + constant."""
    if queue_length < 0:
        raise ValueError(f"queue length must be >= 0, got {queue_length}")
    return float(queue_length) + QUEUE_METRIC_CONSTANT


@dataclass
class DistanceTable:
    """One node's distance estimates and next hops."""

    node_id: int
    distance: Dict[int, float]
    next_hop: Dict[int, Optional[int]]  # destination -> neighbour node id


class BellmanFordNode:
    """Distance-vector state machine for one PSN."""

    def __init__(self, network: Network, node_id: int) -> None:
        self.network = network
        self.node_id = node_id
        self.table = DistanceTable(
            node_id=node_id,
            distance={n: math.inf for n in network.nodes},
            next_hop={n: None for n in network.nodes},
        )
        self.table.distance[node_id] = 0.0
        #: Latest received neighbour tables: neighbour -> {dest: distance}.
        self._neighbour_tables: Dict[int, Dict[int, float]] = {}

    def snapshot(self) -> Dict[int, float]:
        """The distance vector this node would send to its neighbours."""
        return dict(self.table.distance)

    def receive_vector(self, neighbour: int, vector: Dict[int, float]) -> None:
        """Store a neighbour's advertised distance vector."""
        if neighbour == self.node_id:
            raise ValueError("node received its own vector")
        self._neighbour_tables[neighbour] = dict(vector)

    def recompute(self, link_metrics: Dict[int, float]) -> bool:
        """Periodic re-minimization over all neighbours.

        Parameters
        ----------
        link_metrics:
            Current metric per *neighbour node id* (queue length +
            constant of the link toward that neighbour).

        Returns
        -------
        bool
            Whether any distance or next hop changed.
        """
        changed = False
        # Neighbours with both a vector and a link metric, in id order.
        candidates = [(n, link_metrics[n], vector) for n, vector in
                      sorted(self._neighbour_tables.items()) if n in link_metrics]
        for dest in self.network.nodes:
            if dest == self.node_id:
                continue
            best, best_neighbour = math.inf, None
            for neighbour, metric, vector in candidates:
                via = metric + vector.get(dest, math.inf)
                if via < best:
                    best, best_neighbour = via, neighbour
            if best > INFINITY_THRESHOLD:
                best, best_neighbour = math.inf, None
            if (best != self.table.distance[dest]
                    or best_neighbour != self.table.next_hop[dest]):
                changed = True
            self.table.distance[dest] = best
            self.table.next_hop[dest] = best_neighbour
        return changed

    def next_hop(self, dest: int) -> Optional[int]:
        """Forwarding decision: neighbour node id toward ``dest``."""
        return self.table.next_hop.get(dest)


class DistanceVectorProtocol(BellmanFordNode):
    """One PSN's 1969 routing: the control protocol a ``Psn`` holds in
    place of ``FloodingState``, and its router.  Every 2/3 s (phase seed
    ``bf-<node>-phase``) it re-minimizes over the *instantaneous* queue
    lengths and sends its vector to every neighbour; bad news spreads
    one exchange per hop.  Packets leave on the least-queued circuit to
    the next hop.  ``stats`` counts exchanges (``generated``) and
    vectors sent (``forwarded``) and heard (``accepted``)."""

    def __init__(self, psn: "Psn", streams) -> None:
        super().__init__(psn.network, psn.node_id)
        self.clock, self.transmitters = psn.sim, psn.transmitters
        self.stats = FloodingStats()
        # A vector is a header plus 16 bits per destination.
        self._vector_bits = 64.0 + 16.0 * len(self.network.nodes)
        # Drawn from once: a throwaway generator, not a cached stream.
        period = BELLMAN_FORD_EXCHANGE_S
        offset = Random(streams.seed(f"bf-{self.node_id}-phase")).uniform(0.0, period)
        psn.sim.timers.every(period, self.exchange, first_fire_s=offset + period)

    @property
    def vectors_sent(self) -> int:
        return self.stats.forwarded

    def _least_queued(self, neighbour: int) -> Optional[int]:
        links = self.network.links_between(self.node_id, neighbour)
        queue = [self.transmitters[link.link_id].queue_length() for link in links]
        return links[queue.index(min(queue))].link_id if links else None

    def exchange(self) -> None:
        """Re-minimize on the queues as they stand; send the vector."""
        routes, metrics = {}, {}
        for neighbour in self.network.neighbors(self.node_id):
            link_id = self._least_queued(neighbour)
            if link_id is not None:
                routes[neighbour] = link_id
                queue = self.transmitters[link_id].queue_length()
                metrics[neighbour] = queue_length_metric(queue)
        self.recompute(metrics)
        vector = self.snapshot()  # one copy for all: receivers copy it
        for neighbour, link_id in routes.items():
            self.transmitters[link_id].send(Packet(
                PacketKind.DISTANCE_VECTOR, self.node_id, neighbour,
                self._vector_bits, self.clock.now, None, vector,
            ))
        self.stats.generated += 1
        self.stats.forwarded += len(routes)

    def receive(self, packet: Packet, via: Link) -> None:
        self.receive_vector(via.src, packet.vector)
        self.stats.accepted += 1

    def next_hop_link(self, dst: int, src: Optional[int] = None):
        neighbour = self.next_hop(dst)
        return None if neighbour is None else self._least_queued(neighbour)

    def link_changed(self, link_id: int, up: bool) -> None:
        """Forget a neighbour no circuit reaches: a restored circuit
        carries traffic once the neighbour's next vector has crossed it."""
        neighbour = self.network.link(link_id).dst
        if not self.network.links_between(self.node_id, neighbour):
            self._neighbour_tables.pop(neighbour, None)


class QueueLengthMetric:
    """The 1969 metric as a simulation's ``metric``: every PSN runs a
    :class:`DistanceVectorProtocol` where a ``LinkMetric`` starts SPF."""

    name = "BF-1969"

    def check_config(self, config) -> None:
        """Refuse by field name what acts on SPF routing: multipath trees,
        the update screen, adversarial faults on the update protocol."""
        adversarial = getattr(config.faults, "adversarial", ())
        for name, value in (
            ("multipath", config.multipath), ("defenses", config.defenses),
            ("faults", tuple(fault.kind for fault in adversarial)),
        ):
            if value:
                raise ValueError(f"{name}: {self.name} routing cannot honour "
                                 f"{value!r}; it acts on SPF routing")

    def start_routing(self, simulation) -> None:
        """Give each PSN the protocol as update protocol and router; no
        cost table, tree or cache is built."""
        for psn in simulation.psns.values():
            psn.flooding = psn.router = DistanceVectorProtocol(
                psn, simulation.streams
            )
            psn.on_link_change = psn.flooding.link_changed
