"""Packet-level simulation of the original (1969) routing algorithm.

Section 2.1 of the paper describes the first ARPANET routing scheme: a
distributed Bellman-Ford computation whose link metric was *"simply the
instantaneous queue length at the moment of updating plus a fixed
constant"*, with neighbour-table exchanges *"every 2/3 seconds"*.  Its
recorded failure modes -- a volatile instantaneous metric, persistent
forwarding loops while the computation converges, and routing
oscillation -- motivated the 1979 move to SPF and ultimately this
paper's 1987 metric revision.

:class:`BellmanFordSimulation` runs that algorithm live: distance
vectors travel as real control packets over the same transmitters the
SPF simulations use, the metric is sampled from the *actual* output
queues, and data packets follow the (sometimes looping) next hops, with
the hop limit catching the casualties.  Together with
:class:`~repro.sim.network_sim.NetworkSimulation` this covers all three
generations of ARPANET routing.
"""

from __future__ import annotations

from random import Random
from typing import Dict, Optional

from repro.des import RandomStreams, Simulator
from repro.psn.interfaces import LinkTransmitter
from repro.psn.packet import Packet, PacketKind
from repro.psn.node import MAX_HOPS
from repro.routing.bellman_ford import BellmanFordNode, queue_length_metric
from repro.sim.network_sim import ScenarioConfig
from repro.sim.stats import SimulationReport, StatsCollector
from repro.topology.graph import Link, Network
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.sources import start_sources
from repro.units import BELLMAN_FORD_EXCHANGE_S

#: Distance-vector packet overhead: header plus 16 bits per destination.
_VECTOR_HEADER_BITS = 64.0
_VECTOR_BITS_PER_DEST = 16.0


class _LegacyNode:
    """One PSN running the 1969 algorithm."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        transmitters: Dict[int, LinkTransmitter],
        stats: StatsCollector,
        streams: RandomStreams,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.transmitters = transmitters
        self.stats = stats
        self.bf = BellmanFordNode(network, node_id)
        self.vectors_sent = 0
        self._vector_bits = (
            _VECTOR_HEADER_BITS + _VECTOR_BITS_PER_DEST * len(network.nodes)
        )
        # Drawn from once: a throwaway generator, not a cached stream.
        offset = Random(streams.seed(f"bf-{node_id}-phase")).uniform(
            0.0, BELLMAN_FORD_EXCHANGE_S
        )
        sim.timers.every(
            BELLMAN_FORD_EXCHANGE_S, self._exchange,
            first_fire_s=offset + BELLMAN_FORD_EXCHANGE_S,
        )

    # ------------------------------------------------------------------
    def _link_toward(self, neighbour: int) -> Optional[LinkTransmitter]:
        links = self.network.links_between(self.node_id, neighbour)
        if not links:
            return None
        # Multi-circuit: take the least-queued link, as the hardware did.
        best = min(
            links,
            key=lambda l: self.transmitters[l.link_id].queue_length(),
        )
        return self.transmitters[best.link_id]

    def _current_metrics(self) -> Dict[int, float]:
        metrics: Dict[int, float] = {}
        for neighbour in self.network.neighbors(self.node_id):
            transmitter = self._link_toward(neighbour)
            if transmitter is not None:
                metrics[neighbour] = queue_length_metric(
                    transmitter.queue_length()
                )
        return metrics

    def _exchange(self) -> None:
        # Re-minimize on the *instantaneous* queue lengths (the paper's
        # complaint: a sample, not an average).
        self.bf.recompute(self._current_metrics())
        snapshot = self.bf.snapshot()
        for neighbour in self.network.neighbors(self.node_id):
            transmitter = self._link_toward(neighbour)
            if transmitter is None:
                continue
            packet = Packet(
                PacketKind.DISTANCE_VECTOR, self.node_id, neighbour,
                self._vector_bits, self.sim.now, None, dict(snapshot),
            )
            transmitter.send(packet)
            self.vectors_sent += 1

    # ------------------------------------------------------------------
    def inject(self, src: int, dst: int, size_bits: float) -> None:
        packet = Packet(PacketKind.DATA, src, dst, size_bits, self.sim.now)
        self.stats.packet_offered(self.sim.now)
        self.forward(packet)

    def receive(self, packet: Packet, via: Link) -> None:
        if packet.kind is PacketKind.DISTANCE_VECTOR:
            self.bf.receive_vector(via.src, packet.vector)
            return
        if packet.dst == self.node_id:
            self.stats.packet_delivered(packet, self.sim.now)
            return
        self.forward(packet)

    def forward(self, packet: Packet) -> None:
        if packet.hop_count >= MAX_HOPS:
            self.stats.packet_dropped(packet, "hop-limit", self.sim.now)
            return
        neighbour = self.bf.next_hop(packet.dst)
        if neighbour is None:
            self.stats.packet_dropped(packet, "unreachable", self.sim.now)
            return
        transmitter = self._link_toward(neighbour)
        if transmitter is None:
            self.stats.packet_dropped(packet, "unreachable", self.sim.now)
            return
        transmitter.send(packet)


class BellmanFordSimulation:
    """The 1969 ARPANET, live: distance vectors, queue-length metric."""

    def __init__(
        self,
        network: Network,
        traffic: TrafficMatrix,
        config: Optional[ScenarioConfig] = None,
    ) -> None:
        self.network = network
        self.traffic = traffic
        self.config = config or ScenarioConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        self.stats = StatsCollector(network, warmup_s=self.config.warmup_s)
        self.transmitters: Dict[int, LinkTransmitter] = {
            link.link_id: LinkTransmitter(
                self.sim,
                link,
                deliver=self._deliver,
                on_drop=self._on_drop,
            )
            for link in network.links
        }
        self.nodes: Dict[int, _LegacyNode] = {
            node.node_id: _LegacyNode(
                self.sim,
                network,
                node.node_id,
                {
                    link.link_id: self.transmitters[link.link_id]
                    for link in network.out_links(node.node_id)
                },
                self.stats,
                self.streams,
            )
            for node in network
        }
        # Transit data goes straight to the far node's forward, as in
        # NetworkSimulation.
        for transmitter in self.transmitters.values():
            transmitter.forward = self.nodes[transmitter.link.dst].forward
        self.sources = start_sources(
            self.sim, self.streams, traffic, emit=self._emit
        )
        self.stats.attach_wire(self.sim, self.transmitters)

    def _deliver(self, packet: Packet, link: Link) -> None:
        self.nodes[link.dst].receive(packet, link)

    def _on_drop(self, packet: Packet, link: Link) -> None:
        if packet.kind is PacketKind.DATA:
            self.stats.packet_dropped(packet, "congestion", self.sim.now)

    def _emit(self, src: int, dst: int, size_bits: float) -> None:
        self.nodes[src].inject(src, dst, size_bits)

    def fail_circuit_at(self, link_id: int, at_s: float) -> None:
        """Schedule a circuit failure.

        There is no flooding here: neighbours notice the dead circuit at
        their next exchange, and the bad news spreads one vector exchange
        (2/3 s) per hop while stale tables keep attracting traffic --
        the counting-to-infinity weakness of distance-vector routing.
        """
        self.sim.call_in(
            max(at_s - self.sim.now, 0.0), self._fail_circuit, link_id
        )

    def _fail_circuit(self, link_id: int) -> None:
        affected = self.network.set_circuit_state(link_id, up=False)
        self.stats.topology_changed()
        for link in affected:
            self.transmitters[link.link_id].flush()

    def run(self, until_s: Optional[float] = None) -> SimulationReport:
        """Run the simulation and summarize it."""
        horizon = until_s if until_s is not None else self.config.duration_s
        self.sim.run(until=horizon)
        return self.stats.report("BF-1969", horizon)
