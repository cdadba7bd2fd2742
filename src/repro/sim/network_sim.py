"""Whole-network packet-level simulation.

:class:`NetworkSimulation` wires a topology, a link metric, and a traffic
matrix into a running network of PSNs, then reports the indicators the
paper's performance study uses.  It is the engine behind the Table-1 and
Figure-13 reproductions, the Figure-1 oscillation demonstration, and the
example applications.  The metric names the generation: a
:class:`~repro.metrics.base.LinkMetric` runs SPF (1979, 1987), the
:class:`~repro.routing.bellman_ford.QueueLengthMetric` Bellman-Ford (1969).

>>> from repro.sim import NetworkSimulation, ScenarioConfig
>>> from repro.metrics import HopNormalizedMetric
>>> from repro.topology import build_ring_network
>>> from repro.traffic import TrafficMatrix
>>> net = build_ring_network(4)
>>> traffic = TrafficMatrix.uniform(net, total_bps=20_000.0)
>>> simulation = NetworkSimulation(
...     net, HopNormalizedMetric(), traffic,
...     ScenarioConfig(duration_s=60.0, warmup_s=10.0),
... )
>>> report = simulation.run()
>>> report.delivered_packets > 0
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.des import RandomStreams, Simulator
from repro.obs.telemetry import RunTelemetry
from repro.obs.tracer import CIRCUIT_FAIL, CIRCUIT_RESTORE, Tracer, build_tracer
from repro.psn.interfaces import LinkTransmitter
from repro.psn.node import Psn
from repro.psn.packet import Packet, PacketKind
from repro.sim.stats import DeliveryTimeline, SimulationReport, StatsCollector
from repro.topology.graph import Link, Network
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.sources import PoissonSource

if TYPE_CHECKING:  # pragma: no cover - optional subsystems load where used
    from repro.faults.injector import FaultInjector
    from repro.faults.invariants import InvariantMonitor
    from repro.metrics.base import LinkMetric
    from repro.obs.meters import SimulationMeters
    from repro.routing.bellman_ford import QueueLengthMetric


@dataclass
class ScenarioConfig:
    """Everything a run can be told; no other channel configures one.

    The paper's fixed constants are not settings: the 10-s measurement
    interval and the 600-bit mean packet (:mod:`repro.units`) and the
    link buffer (``DEFAULT_BUFFER_PACKETS`` in
    :mod:`repro.psn.interfaces`) are read where they are used.
    """

    #: Simulated seconds (measurement windows are 10 s, so give it
    #: several).
    duration_s: float = 120.0
    #: Events before this time are excluded from the report.
    warmup_s: float = 30.0
    #: Master random seed (same seed => identical run).
    seed: int = 0
    #: Equal-cost multipath forwarding: None (single path, the paper's
    #: ARPANET), "flow" (hash by flow), or "packet" (round-robin).
    multipath: Optional[str] = None
    #: Per-packet probability of destruction by line errors.
    line_error_rate: float = 0.0
    #: End-to-end (RFNM) flow control window per src-dst pair; None
    #: disables it.  The ARPANET used 8.  Note: combined with line
    #: errors, a destroyed RFNM permanently consumes window share (the
    #: pre-timeout IMP behaved the same way).
    flow_control_window: Optional[int] = None
    #: Structured event tracing (see :mod:`repro.obs`): ``None`` (off --
    #: the zero-overhead default, no sink is even allocated), ``"memory"``
    #: (in-memory ring), ``"null"`` (enabled, events discarded), a file
    #: path (JSONL), or a pre-built :class:`~repro.obs.tracer.Tracer`
    #: (not picklable -- use string specs inside a
    #: :class:`~repro.sim.parallel.RunSpec`, a file path per spec: a
    #: sweep names no files for its runs).  Tracing never alters
    #: behaviour: traced runs stay bit-identical to untraced ones.
    trace: Optional[object] = None
    #: Declarative fault workload (a :class:`~repro.faults.FaultPlan`):
    #: scripted circuit/node/partition events plus stochastic link
    #: flapping, compiled onto the run by a
    #: :class:`~repro.faults.FaultInjector`.  Plans are frozen
    #: primitives, so fault-carrying configs still pickle into
    #: :class:`~repro.sim.parallel.RunSpec` fleets.  ``None`` = no
    #: faults (and no injector is even constructed).
    faults: Optional[object] = None
    #: Runtime verification of the paper's metric guarantees (see
    #: :mod:`repro.faults.invariants`): ``False`` (off, the default),
    #: ``True`` / ``"record"`` (check each routing period, collect
    #: violations on the report), or ``"strict"`` (raise
    #: :class:`~repro.faults.InvariantViolationError` on the first).
    #: The monitor only reads simulation state; checked runs stay
    #: bit-identical to unchecked ones.
    check_invariants: object = False
    #: Update-screening defenses (see :mod:`repro.routing.defense`):
    #: ``False`` (off -- the default; no policy is allocated and the
    #: per-update path is untouched) or ``True``.  Every PSN then
    #: validates incoming routing updates (cost bounds, sequence
    #: plausibility, an origination rate limit), quarantines a
    #: neighbour for 30 s after three rejections, and purges database
    #: entries for origins unheard for 120 s -- the post-1980 ARPANET
    #: hardening, with fixed settings.  On a fault-free run the screens
    #: accept all honest traffic, so defended runs stay bit-identical
    #: to bare ones.
    defenses: bool = False
    #: Live metrics pipeline (see :mod:`repro.obs.meters`): ``None``
    #: (off -- the zero-overhead default, nothing is allocated and no
    #: sampler timer is scheduled), ``"memory"`` (snapshots kept on
    #: ``simulation.meters.snapshots``), or a file path the snapshot
    #: stream is written to as JSONL at the end of each run.  The
    #: sampler only reads counters, so metered runs stay bit-identical
    #: to unmetered ones.
    metrics: Optional[str] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive: {self.duration_s}")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ValueError(
                f"warmup must lie inside the run: {self.warmup_s}"
            )
        if self.multipath not in (None, "flow", "packet"):
            raise ValueError(
                f"multipath must be None, 'flow' or 'packet': "
                f"{self.multipath!r}"
            )
        if self.check_invariants not in (False, True, "record", "strict"):
            raise ValueError(
                f"check_invariants must be False, True, 'record' or "
                f"'strict': {self.check_invariants!r}"
            )
        if not isinstance(self.defenses, bool):
            raise ValueError(
                f"defenses must be False or True: {self.defenses!r}"
            )
        if self.metrics is not None and not isinstance(self.metrics, str):
            raise ValueError(
                f"metrics must be None, 'memory' or a path: "
                f"{self.metrics!r}"
            )


class NetworkSimulation:
    """A network of PSNs under one metric and one traffic matrix (the
    build refuses, by field name, a setting its routing cannot honour)."""

    def __init__(
        self,
        network: Network,
        metric: Union[LinkMetric, QueueLengthMetric],
        traffic: TrafficMatrix,
        config: Optional[ScenarioConfig] = None,
    ) -> None:
        self.network = network
        self.metric = metric
        self.traffic = traffic
        self.config = config or ScenarioConfig()
        metric.check_config(self.config)

        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        #: The run's tracer.  With tracing off this is the shared
        #: NULL_TRACER singleton: nothing is allocated, and components
        #: receive (and discard) it without arming any emission site.
        self.tracer: Tracer = build_tracer(self.config.trace)
        #: Accumulated wall seconds inside :meth:`run`.
        self._wall_s = 0.0
        #: Bucketed offered/delivered counts for resilience analysis;
        #: only allocated when a fault plan is attached.
        self.timeline: Optional[DeliveryTimeline] = (
            DeliveryTimeline() if self.config.faults is not None else None
        )
        self.stats = StatsCollector(
            network,
            warmup_s=self.config.warmup_s,
            tracer=self.tracer,
            timeline=self.timeline,
        )
        # A line-error stream only where errors are drawn: each stream is
        # seeded from its own name, so skipping one moves no other draw.
        error_rate = self.config.line_error_rate
        self.transmitters: Dict[int, LinkTransmitter] = {
            link.link_id: LinkTransmitter(
                self.sim,
                link,
                deliver=None,  # the far PSN's receive, wired below
                on_drop=self._on_drop,
                error_rate=error_rate,
                error_rng=(
                    self.streams.stream(f"line-errors-{link.link_id}")
                    if error_rate > 0.0 else None
                ),
            )
            for link in network.links
        }
        self.psns: Dict[int, Psn] = {
            node.node_id: Psn(
                self.sim,
                network,
                node.node_id,
                metric,
                {
                    link.link_id: self.transmitters[link.link_id]
                    for link in network.out_links(
                        node.node_id, include_down=True
                    )
                },
                self.stats,
                flow_control_window=self.config.flow_control_window,
                tracer=self.tracer,
            )
            for node in network
        }
        #: The routing state the metric's generation builds and shares
        #: across PSNs: SPF's tree cache and, with ``defenses`` set, its
        #: update-screening policy.  Both stay None under the 1969
        #: protocol, which builds no SPF state.
        self.spf_cache = self.defense_policy = None
        metric.start_routing(self)
        # Each transmitter hands packets straight to the far PSN: transit
        # data to its forward, everything else to its receive.
        for transmitter in self.transmitters.values():
            far = self.psns[transmitter.link.dst]
            transmitter.deliver = far.receive
            transmitter.forward = far.forward
        # Likewise each source emits straight into its PSN's inject.
        self.sources = [
            PoissonSource(
                self.sim, self.streams, src, dst, bps, self.psns[src].inject
            )
            for (src, dst), bps in traffic
        ]
        # The report's update rate counts the wire from ``warmup_s`` on.
        # Its one read-only event is registered after the sources and
        # before the fault injector; moving it would change which
        # transmissions at exactly ``warmup_s`` the report counts.
        self.stats.attach_wire(self.sim, self.transmitters)
        #: Compiled fault workload (None without a plan).  Constructed
        #: after the PSNs so same-timestamp fault events fire after
        #: measurement closes -- a fixed, deterministic order.
        self.fault_injector: Optional[FaultInjector] = None
        if self.config.faults is not None:
            from repro.faults.injector import FaultInjector
            from repro.faults.plan import FaultPlan

            plan = self.config.faults
            if not isinstance(plan, FaultPlan):
                raise TypeError(
                    f"ScenarioConfig.faults must be a FaultPlan: {plan!r}"
                )
            self.fault_injector = FaultInjector(self, plan)
        #: Runtime invariant checker (None unless enabled).  Registered
        #: last: its periodic tick sees each routing period complete.
        self.invariant_monitor: Optional[InvariantMonitor] = None
        if self.config.check_invariants:
            from repro.faults.invariants import InvariantMonitor

            self.invariant_monitor = InvariantMonitor(
                self, strict=self.config.check_invariants == "strict"
            )
        #: Live metrics pipeline (None with ``metrics=None`` -- the
        #: zero-overhead default; the structural overhead tests assert
        #: this).  Built last so its first sample sees every subsystem.
        self.meters: Optional[SimulationMeters] = None
        if self.config.metrics is not None:
            from repro.obs.meters import SimulationMeters

            self.meters = SimulationMeters(self, self.config.metrics)

    # ------------------------------------------------------------------
    # Wiring callbacks
    # ------------------------------------------------------------------
    def _on_drop(self, packet: Packet, link: Link) -> None:
        if packet.kind is PacketKind.DATA:
            self.stats.packet_dropped(packet, "congestion", self.sim.now)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_circuit_at(self, link_id: int, at_s: float) -> None:
        """Schedule a full-duplex circuit failure."""
        self.sim.call_in(max(at_s - self.sim.now, 0.0),
                         self._fail_circuit, link_id)

    def restore_circuit_at(self, link_id: int, at_s: float) -> None:
        """Schedule a circuit recovery (HN-SPF will ease it in)."""
        self.sim.call_in(max(at_s - self.sim.now, 0.0),
                         self._restore_circuit, link_id)

    def _fail_circuit(self, link_id: int) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, CIRCUIT_FAIL, link=link_id)
        affected = self.network.set_circuit_state(link_id, up=False)
        self.stats.topology_changed()
        for link in affected:
            self.psns[link.src].local_link_down(link.link_id)

    def _restore_circuit(self, link_id: int) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, CIRCUIT_RESTORE, link=link_id)
        affected = self.network.set_circuit_state(link_id, up=True)
        self.stats.topology_changed()
        for link in affected:
            self.psns[link.src].local_link_up(link.link_id)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until_s: Optional[float] = None) -> SimulationReport:
        """Run to ``until_s`` (default: the configured duration).

        Can be called repeatedly with increasing times; the report always
        covers everything after the warmup.  Every report carries the
        run's :class:`~repro.obs.telemetry.RunTelemetry` as its
        ``telemetry`` attribute (cumulative over repeated calls).
        """
        horizon = until_s if until_s is not None else self.config.duration_s
        started = time.perf_counter()
        self.sim.run(until=horizon)
        # Nodes may end the run with routing updates still buffered
        # (received, but never needed for a forwarding decision since);
        # apply them so post-run tree inspection sees every update.
        for psn in self.psns.values():
            psn.flush_pending_updates()
        self._wall_s += time.perf_counter() - started
        # Final invariant sweep over whatever the last partial period
        # advertised (and a loop check on the settled trees).
        if self.invariant_monitor is not None:
            self.invariant_monitor.check_now()
        # Final metrics sample (and JSONL flush for path specs), taken
        # before telemetry harvest so the report counts it.
        if self.meters is not None:
            self.meters.finish()
        report = self.stats.report(self.metric.name, horizon)
        report.telemetry = self.telemetry()
        if self.invariant_monitor is not None:
            report.invariant_violations = list(
                self.invariant_monitor.violations
            )
        if self.fault_injector is not None:
            # Local import: repro.report renders simulations and must
            # stay importable without dragging the sim package in.
            from repro.report.resilience import resilience_summary

            report.resilience = resilience_summary(self)
        if self.tracer.enabled:
            self.tracer.flush()
        return report

    def telemetry(self) -> RunTelemetry:
        """This run's counter block, harvested from live subsystems.

        An O(nodes + links) sweep over counters the subsystems keep
        anyway -- calling it never perturbs the simulation.
        """
        return RunTelemetry.collect(self, wall_s=self._wall_s)
