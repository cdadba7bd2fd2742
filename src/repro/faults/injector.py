"""Compiles a :class:`~repro.faults.plan.FaultPlan` onto a simulation.

The injector is constructed with a built (not yet run)
:class:`~repro.sim.network_sim.NetworkSimulation` and schedules every
scripted event and stochastic flap through the simulator's event queue,
bottoming out in the simulation's existing circuit machinery
(``_fail_circuit`` / ``_restore_circuit``) so faults interact with
routing exactly as the hand-scripted ``fail_circuit_at`` calls always
have.

Determinism: scripted events fire at fixed times; flap inter-event
times are drawn *at fire time* from a dedicated per-link random stream
(``fault-flap-<link_id>``), so each flapping circuit's trajectory
depends only on the master seed and its own link id -- never on other
traffic or other flaps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.faults.adversarial import (
    AdversarialFault,
    ReorderCircuit,
    StuckNode,
)
from repro.faults.plan import FaultEvent, FaultPlan, LinkFlap
from repro.obs.tracer import (
    PARTITION,
    PARTITION_HEAL,
    PSN_CRASH,
    PSN_RESTART,
)
from repro.units import DOWN_COST, MEASUREMENT_INTERVAL_S

if TYPE_CHECKING:  # pragma: no cover - avoids a faults <-> sim import cycle
    from repro.sim.network_sim import NetworkSimulation


class FaultInjector:
    """Schedules one plan's faults into one simulation run."""

    def __init__(self, simulation: "NetworkSimulation", plan: FaultPlan) -> None:
        self.simulation = simulation
        self.plan = plan
        self._validate(plan)
        #: Circuit transitions actually performed (fail + restore).
        self.faults_injected = 0
        self.restores_injected = 0
        #: Up->down->up cycles completed by stochastic flaps.
        self.flap_transitions = 0
        #: Every applied transition, in order: (t_s, "fail"|"restore",
        #: link_id).  The resilience summary walks this list.
        self.applied: List[tuple] = []
        # -- adversarial faults ----------------------------------------
        #: Forged updates actually emitted, by kind.
        self.corrupt_updates_injected = 0
        self.babble_updates_injected = 0
        #: Stuck-node freeze/thaw transitions applied.
        self.stuck_transitions = 0
        #: Control packets sent out of order by reorder hooks.
        self.reorder_swaps = 0
        #: Every adversarial action, in order: (t_s, kind, target id).
        self.adversarial_applied: List[tuple] = []
        #: Periodic containment samples, only with adversarial faults:
        #: (t_s, poisoned-node count) and (t_s, cumulative update
        #: transmissions).  The resilience containment summary reads
        #: both (see :mod:`repro.report.resilience`).
        self.poison_samples: List[Tuple[float, int]] = []
        self.update_tx_samples: List[Tuple[float, int]] = []
        sim = simulation.sim
        for event in plan.events:
            sim.call_in(max(event.at_s - sim.now, 0.0), self._fire, event)
        for flap in plan.flaps:
            self._arm_flap(flap)
        arm = {
            "corrupt-update": self._arm_emitter,
            "babbling-node": self._arm_emitter,
            "stuck-node": self._arm_stuck,
            "reorder-circuit": self._arm_reorder,
        }
        for fault in plan.adversarial:
            arm[fault.kind](fault)
        if plan.adversarial:
            # The containment sampler is read-only (it only compares
            # databases against owners' counters), so sampling never
            # perturbs the run -- same argument as the metrics sampler.
            sim.timers.every(
                MEASUREMENT_INTERVAL_S, self._sample_containment,
                first_fire_s=MEASUREMENT_INTERVAL_S,
            )

    def _validate(self, plan: FaultPlan) -> None:
        network = self.simulation.network
        links = len(network.links)
        for event in plan.events:
            if event.link_id is not None and not 0 <= event.link_id < links:
                raise ValueError(f"no such link {event.link_id}: {event}")
            if event.node_id is not None and event.node_id not in network.nodes:
                raise ValueError(f"no such node {event.node_id}: {event}")
            for node in event.nodes:
                if node not in network.nodes:
                    raise ValueError(f"no such node {node}: {event}")
        # Either direction names a duplex circuit.  Two flaps on one
        # circuit would fight over the same physical line; two reorders
        # would share its one stream and entangle their draws.
        flapped: Dict[int, int] = {}
        for flap in plan.flaps:
            self._claim_circuit(flapped, flap.link_id, flap, "flap")
        reordered: Dict[int, int] = {}
        for fault in plan.adversarial:
            target = getattr(fault, fault.target)
            if fault.target == "link_id":
                self._claim_circuit(reordered, target, fault, "reorder")
            elif target not in network.nodes:
                raise ValueError(f"no such node {target}: {fault}")

    def _claim_circuit(
        self, claimed: Dict[int, int], link_id: int, entry, verb: str
    ) -> None:
        """Check that ``link_id`` exists and that no earlier entry in
        ``claimed`` holds its duplex circuit, then claim it."""
        if not 0 <= link_id < len(self.simulation.network.links):
            raise ValueError(f"no such link {link_id}: {entry}")
        circuit = self._circuit_id(link_id)
        if circuit in claimed:
            raise ValueError(
                f"links {claimed[circuit]} and {link_id} "
                f"{verb} the same duplex circuit"
            )
        claimed[circuit] = link_id

    # ------------------------------------------------------------------
    # Scripted events
    # ------------------------------------------------------------------
    def _fire(self, event: FaultEvent) -> None:
        if event.action == "fail-circuit":
            self._fail(event.link_id)
        elif event.action == "restore-circuit":
            self._restore(event.link_id)
        elif event.action == "crash-node":
            self._emit(PSN_CRASH, node=event.node_id)
            for link_id in self._node_circuits(event.node_id):
                self._fail(link_id)
        elif event.action == "restart-node":
            self._emit(PSN_RESTART, node=event.node_id)
            for link_id in self._node_circuits(event.node_id):
                self._restore(link_id)
        elif event.action == "partition":
            self._emit(PARTITION, value=float(len(event.nodes)))
            for link_id in self._crossing_circuits(event.nodes):
                self._fail(link_id)
        elif event.action == "heal-partition":
            self._emit(PARTITION_HEAL, value=float(len(event.nodes)))
            for link_id in self._crossing_circuits(event.nodes):
                self._restore(link_id)

    def _fail(self, link_id: int) -> None:
        """Down one circuit (idempotent: already-down circuits are left)."""
        if not self.simulation.network.link(link_id).up:
            return
        self.faults_injected += 1
        self.applied.append((self.simulation.sim.now, "fail", link_id))
        self.simulation._fail_circuit(link_id)

    def _restore(self, link_id: int) -> None:
        if self.simulation.network.link(link_id).up:
            return
        self.restores_injected += 1
        self.applied.append((self.simulation.sim.now, "restore", link_id))
        self.simulation._restore_circuit(link_id)

    def _node_circuits(self, node_id: int) -> List[int]:
        """The circuits incident to a PSN (one direction each)."""
        return [
            link.link_id
            for link in self.simulation.network.out_links(
                node_id, include_down=True
            )
        ]

    def _crossing_circuits(self, group) -> List[int]:
        """Circuits with exactly one endpoint inside ``group``.

        Each duplex circuit is named once, by its lower-numbered
        direction, so fail/restore touch it exactly once.
        """
        inside = set(group)
        crossing = []
        for link in self.simulation.network.links:
            if link.reverse_id is not None and link.reverse_id < link.link_id:
                continue
            if (link.src in inside) != (link.dst in inside):
                crossing.append(link.link_id)
        return crossing

    def _emit(self, kind: str, node=None, value=None) -> None:
        tracer = self.simulation.tracer
        if tracer.enabled:
            tracer.emit(self.simulation.sim.now, kind, node=node, value=value)

    # ------------------------------------------------------------------
    # Stochastic flapping
    # ------------------------------------------------------------------
    def _flap_rng(self, flap: LinkFlap):
        return self.simulation.streams.stream(f"fault-flap-{flap.link_id}")

    def _arm_flap(self, flap: LinkFlap) -> None:
        delay = self._flap_rng(flap).expovariate(1.0 / flap.mtbf_s)
        self.simulation.sim.call_in(
            max(flap.start_s - self.simulation.sim.now, 0.0) + delay,
            self._flap_fail, flap,
        )

    def _flap_fail(self, flap: LinkFlap) -> None:
        now = self.simulation.sim.now
        if flap.until_s is not None and now >= flap.until_s:
            return  # past the flap window: no new failures
        self._fail(flap.link_id)
        repair = self._flap_rng(flap).expovariate(1.0 / flap.mttr_s)
        self.simulation.sim.call_in(repair, self._flap_restore, flap)

    def _flap_restore(self, flap: LinkFlap) -> None:
        self._restore(flap.link_id)
        self.flap_transitions += 1
        now = self.simulation.sim.now
        if flap.until_s is not None and now >= flap.until_s:
            return
        delay = self._flap_rng(flap).expovariate(1.0 / flap.mtbf_s)
        self.simulation.sim.call_in(delay, self._flap_fail, flap)

    # ------------------------------------------------------------------
    # Adversarial faults (see repro.faults.adversarial)
    # ------------------------------------------------------------------
    def _circuit_id(self, link_id: int) -> int:
        """The duplex circuit a simplex link belongs to (lower id)."""
        link = self.simulation.network.link(link_id)
        if link.reverse_id is None:
            return link_id
        return min(link_id, link.reverse_id)

    def _own_links(self, node_id: int) -> List[int]:
        """A node's outgoing link ids, in deterministic (sorted) order."""
        return sorted(
            link.link_id
            for link in self.simulation.network.out_links(
                node_id, include_down=True
            )
        )

    def _arm_emitter(self, fault: AdversarialFault) -> None:
        """Start a corrupt-update or babbling-node Poisson emitter on
        its own ``<stream>-<node>`` stream."""
        rng = self.simulation.streams.stream(f"{fault.stream}-{fault.node_id}")
        links = self._own_links(fault.node_id)
        delay = rng.expovariate(fault.rate_per_s)
        self.simulation.sim.call_in(
            max(fault.start_s - self.simulation.sim.now, 0.0) + delay,
            self._emitter_fire, fault, rng, links,
        )

    def _emitter_fire(
        self, fault: AdversarialFault, rng, links: List[int]
    ) -> None:
        """Emit one update from an emitter, then rearm it.

        A babbler re-announces the node's current report verbatim on an
        honest sequence: every sanity screen passes it (it is the
        truth, just far too often) and only per-neighbour rate limiting
        contains it.  A corrupter forges the whole report in one of
        three modes drawn from its stream: a bit-flipped *sequence
        number* -- a high bit OR-ed into the next honest sequence, the
        1980 failure mode that poisons every database against the
        node's later legitimate updates -- an out-of-range *cost field*
        for one drawn link riding an honest sequence number, or both.
        """
        now = self.simulation.sim.now
        if fault.until_s is not None and now >= fault.until_s:
            return
        psn = self.simulation.psns[fault.node_id]
        if fault.kind == "babbling-node":
            psn.flooding.forge()
            self.babble_updates_injected += 1
        else:
            link_id = links[rng.randrange(len(links))]
            mode = rng.random()
            sequence = forged = None
            if mode < 0.6 or mode >= 0.85:
                sequence = (
                    psn.flooding.sequence + 1
                ) | (1 << rng.randint(8, 17))
            if mode >= 0.6:
                # Below the line-dead threshold, so undefended
                # receivers route on it.
                forged = {link_id: rng.randrange(100_000, 2 ** 20)}
            psn.flooding.forge(forged, sequence=sequence)
            self.corrupt_updates_injected += 1
        self.adversarial_applied.append((now, fault.kind, fault.node_id))
        self.simulation.sim.call_in(
            rng.expovariate(fault.rate_per_s), self._emitter_fire,
            fault, rng, links,
        )

    def _arm_stuck(self, fault: StuckNode) -> None:
        sim = self.simulation.sim
        sim.call_in(
            max(fault.start_s - sim.now, 0.0), self._stuck_set, fault, True
        )
        if fault.until_s is not None:
            sim.call_in(
                max(fault.until_s - sim.now, 0.0),
                self._stuck_set, fault, False,
            )

    def _stuck_set(self, fault: StuckNode, stuck: bool) -> None:
        self.simulation.psns[fault.node_id].flooding.stuck = stuck
        self.stuck_transitions += 1
        self.adversarial_applied.append(
            (self.simulation.sim.now, "stuck-node", fault.node_id)
        )

    def _arm_reorder(self, fault: ReorderCircuit) -> None:
        """Install the dequeue-time reorder hook on both directions.

        One stream per duplex circuit; the hook itself checks the
        active window at fire time, so installation order never shifts
        draws (draws happen only on in-window dequeues).
        """
        circuit = self._circuit_id(fault.link_id)
        rng = self.simulation.streams.stream(f"{fault.stream}-{circuit}")
        sim = self.simulation.sim

        def pick(queue_len: int) -> int:
            now = sim.now
            if now < fault.start_s:
                return 0
            if fault.until_s is not None and now >= fault.until_s:
                return 0
            if rng.random() >= fault.probability:
                return 0
            self.reorder_swaps += 1
            return rng.randint(1, min(fault.depth, queue_len - 1))

        link = self.simulation.network.link(fault.link_id)
        self.simulation.transmitters[fault.link_id].reorder_control = pick
        if link.reverse_id is not None:
            self.simulation.transmitters[link.reverse_id].reorder_control = pick

    # ------------------------------------------------------------------
    # Containment sampling (adversarial plans only)
    # ------------------------------------------------------------------
    def _sample_containment(self) -> None:
        """Record (t, poisoned-node count) and cumulative update traffic.

        Read-only: compares every node's flooding database against the
        owning node's own origination counters and current
        advertisements.  Never touches simulation state.
        """
        now = self.simulation.sim.now
        count = sum(
            1 for psn in self.simulation.psns.values()
            if self._node_poisoned(psn)
        )
        self.poison_samples.append((now, count))
        self.update_tx_samples.append(
            (now, self.simulation.stats.update_packets_sent())
        )

    def _node_poisoned(self, psn) -> bool:
        """Whether a node's database disagrees with ground truth.

        Poisoned means either a *sequence* ahead of an origin's own
        origination counter (a forged sequence number got in -- the
        origin's honest updates are now blocked), or a *cost* on record
        at the origin's current sequence that differs from what the
        origin actually advertises (a forged cost got in).  A lagging
        sequence is just propagation in flight, not poisoning.
        """
        from repro.routing.spf import UNREACHABLE

        for origin, owner in self.simulation.psns.items():
            if origin == psn.node_id:
                continue
            own_seq = owner.flooding.sequence
            recorded = psn.flooding.highest_seen(origin)
            if recorded > own_seq:
                return True
            if recorded == own_seq and own_seq > 0:
                for link_id, advertised in owner.flooding.advertised.items():
                    applied = (
                        UNREACHABLE if advertised >= DOWN_COST
                        else float(advertised)
                    )
                    if psn.costs[link_id] != applied:
                        return True
        return False
