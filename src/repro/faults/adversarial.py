"""Adversarial (Byzantine) fault kinds.

Fail-stop faults (:mod:`repro.faults.plan`) model lines and nodes that
*stop*; the 1980 ARPANET collapse was caused by a node that kept
*talking* -- an IMP with failing memory emitted routing updates whose
sequence numbers were bit-flipped garbage, every other node's database
accepted them, and the network melted in an update storm.  This module
makes that class of misbehaviour a declarative, seeded workload:

* :class:`CorruptUpdate` -- a node floods forged updates (its whole
  link-cost report) with bit-flipped sequence numbers and/or an
  out-of-range cost entry (the 1980 failure mode);
* :class:`BabblingNode` -- a node originates *well-formed* updates at a
  configurable rate, far beyond the measurement cadence (an update
  storm from one source);
* :class:`StuckNode` -- a node's control plane freezes: it receives
  updates but never applies, forwards or acknowledges them (data
  forwarding continues on its frozen tables);
* :class:`ReorderCircuit` -- a circuit's control queue delivers
  packets in bounded out-of-order fashion (stress for the
  sequence-number logic).

Like :class:`~repro.faults.plan.LinkFlap`, every stochastic draw comes
from a dedicated per-target random stream (``fault-corrupt-<node>``,
``fault-babble-<node>``, ``fault-reorder-<circuit>``) *at fire time*,
so each adversary's trajectory is a pure function of the master seed
and its own target -- adding one never perturbs another.  The kinds are
frozen primitives carried on :class:`~repro.faults.plan.FaultPlan`
(``adversarial=...``) and round-trip through JSON.

The matching *defense layer* lives in :mod:`repro.routing.defense`;
see ``docs/robustness.md`` for the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


class _Adversary:
    """What every kind declares as class attributes: its JSON ``kind``
    tag, the family of its random stream (``<stream>-<target>``) and
    the name of its target field; and what every kind checks: a
    non-negative target, a positive rate if it has one, and a
    ``[start_s, until_s)`` window."""

    kind: str
    stream: str
    target: str

    def __post_init__(self) -> None:
        target = getattr(self, self.target)
        if target < 0:
            raise ValueError(f"{self.target} must be >= 0: {target}")
        rate = getattr(self, "rate_per_s", 1.0)
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        if self.start_s < 0:
            raise ValueError(
                f"{self.kind}: start must be >= 0: {self.start_s}"
            )
        if self.until_s is not None and self.until_s <= self.start_s:
            raise ValueError(
                f"{self.kind}: until ({self.until_s}) must follow start "
                f"({self.start_s})"
            )


@dataclass(frozen=True)
class CorruptUpdate(_Adversary):
    """A node emits forged routing updates.

    Each emission (exponential inter-event times with rate
    ``rate_per_s``) forges one whole update -- the node's current
    report -- with a bit-flipped sequence number (a high bit OR-ed in,
    jumping the node's sequence space the way the 1980 IMP's failing
    memory did), an out-of-range cost for one drawn link, or both.  The
    node's real origination counter is untouched, so its *legitimate*
    updates keep their honest sequence numbers -- which is exactly what
    lets a poisoned database block them.
    """

    kind = "corrupt-update"
    stream = "fault-corrupt"
    target = "node_id"

    node_id: int
    #: Mean forged updates per second.
    rate_per_s: float = 1.0
    #: No emissions before this time.
    start_s: float = 0.0
    #: No emissions at or after this time (``None`` = until run end).
    until_s: Optional[float] = None


@dataclass(frozen=True)
class BabblingNode(_Adversary):
    """A node originates well-formed updates at an excessive rate.

    Unlike :class:`CorruptUpdate` the updates are protocol-legal --
    proper sequence numbers, the node's current report re-announced
    verbatim -- so sanity validation passes them and only
    per-neighbour rate limiting (see
    :mod:`repro.routing.defense`) can contain the storm.
    """

    kind = "babbling-node"
    stream = "fault-babble"
    target = "node_id"

    node_id: int
    #: Mean updates per second (the honest cadence is at most one per
    #: 10-second measurement interval).
    rate_per_s: float = 10.0
    start_s: float = 0.0
    until_s: Optional[float] = None


@dataclass(frozen=True)
class StuckNode(_Adversary):
    """A node's control plane freezes: receive but never forward or ack.

    While stuck the node drops every incoming routing update and ack
    on the floor (no acknowledgement, no application, no re-flood) and
    originates nothing; its *data plane* keeps forwarding on the frozen
    tables.  Neighbours see their updates go permanently unacked --
    the reliable-flooding blind spot this fault exists to probe.
    """

    kind = "stuck-node"
    #: Draws nothing; the family only keys the one-per-target rule.
    stream = "stuck"
    target = "node_id"

    node_id: int
    start_s: float = 0.0
    #: When the control plane unfreezes (``None`` = stuck forever).
    until_s: Optional[float] = None


@dataclass(frozen=True)
class ReorderCircuit(_Adversary):
    """Bounded reordering of a circuit's queued control packets.

    With probability ``probability`` per dequeue (both directions of
    the duplex circuit, one shared stream), the transmitter sends a
    control packet from position 1..``depth`` of its queue instead of
    the head.  Data packets are untouched.  Reordering is bounded --
    a packet can be overtaken by at most ``depth`` later arrivals per
    dequeue -- which keeps the fault realistic (multi-path hardware,
    retransmission interleaving) rather than adversarially unbounded.
    """

    kind = "reorder-circuit"
    #: One stream per duplex circuit, named by its lower link id.
    stream = "fault-reorder"
    target = "link_id"

    link_id: int
    #: Per-dequeue probability of picking a non-head control packet.
    probability: float = 0.25
    #: Deepest queue position (1-based) that may jump the line.
    depth: int = 3
    start_s: float = 0.0
    until_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1]: {self.probability}"
            )
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1: {self.depth}")


#: Any adversarial fault.
AdversarialFault = Union[CorruptUpdate, BabblingNode, StuckNode, ReorderCircuit]

#: Each kind's class by its JSON ``kind`` tag.
BY_KIND = {
    cls.kind: cls
    for cls in (CorruptUpdate, BabblingNode, StuckNode, ReorderCircuit)
}
#: JSON ``kind`` tags of the adversarial fault kinds.
ADVERSARIAL_KINDS = tuple(BY_KIND)


def adversarial_stream_key(fault: AdversarialFault) -> Tuple[str, int]:
    """The (stream family, target) identity of one adversarial fault.

    Two faults with the same key would share a random stream and
    entangle their trajectories; :class:`~repro.faults.plan.FaultPlan`
    rejects such plans at construction.
    """
    return (fault.stream, getattr(fault, fault.target))
