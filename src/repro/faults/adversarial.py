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
from typing import Dict, Optional, Tuple, Union

#: JSON ``kind`` tags of the adversarial fault kinds.
ADVERSARIAL_KINDS = (
    "corrupt-update",
    "babbling-node",
    "stuck-node",
    "reorder-circuit",
)


def _check_window(start_s: float, until_s: Optional[float], what: str) -> None:
    if start_s < 0:
        raise ValueError(f"{what}: start must be >= 0: {start_s}")
    if until_s is not None and until_s <= start_s:
        raise ValueError(
            f"{what}: until ({until_s}) must follow start ({start_s})"
        )


@dataclass(frozen=True)
class CorruptUpdate:
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

    node_id: int
    #: Mean forged updates per second.
    rate_per_s: float = 1.0
    #: No emissions before this time.
    start_s: float = 0.0
    #: No emissions at or after this time (``None`` = until run end).
    until_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0: {self.node_id}")
        if self.rate_per_s <= 0:
            raise ValueError(f"rate must be positive: {self.rate_per_s}")
        _check_window(self.start_s, self.until_s, self.kind)

    def to_dict(self) -> Dict:
        out: Dict = {
            "kind": self.kind,
            "node_id": self.node_id,
            "rate_per_s": self.rate_per_s,
        }
        if self.start_s:
            out["start_s"] = self.start_s
        if self.until_s is not None:
            out["until_s"] = self.until_s
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "CorruptUpdate":
        return cls(
            node_id=int(data["node_id"]),
            rate_per_s=float(data.get("rate_per_s", 1.0)),
            start_s=float(data.get("start_s", 0.0)),
            until_s=(
                float(data["until_s"]) if data.get("until_s") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class BabblingNode:
    """A node originates well-formed updates at an excessive rate.

    Unlike :class:`CorruptUpdate` the updates are protocol-legal --
    proper sequence numbers, the node's current report re-announced
    verbatim -- so sanity validation passes them and only
    per-neighbour rate limiting (see
    :mod:`repro.routing.defense`) can contain the storm.
    """

    kind = "babbling-node"

    node_id: int
    #: Mean updates per second (the honest cadence is at most one per
    #: 10-second measurement interval).
    rate_per_s: float = 10.0
    start_s: float = 0.0
    until_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0: {self.node_id}")
        if self.rate_per_s <= 0:
            raise ValueError(f"rate must be positive: {self.rate_per_s}")
        _check_window(self.start_s, self.until_s, self.kind)

    def to_dict(self) -> Dict:
        out: Dict = {
            "kind": self.kind,
            "node_id": self.node_id,
            "rate_per_s": self.rate_per_s,
        }
        if self.start_s:
            out["start_s"] = self.start_s
        if self.until_s is not None:
            out["until_s"] = self.until_s
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "BabblingNode":
        return cls(
            node_id=int(data["node_id"]),
            rate_per_s=float(data.get("rate_per_s", 10.0)),
            start_s=float(data.get("start_s", 0.0)),
            until_s=(
                float(data["until_s"]) if data.get("until_s") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class StuckNode:
    """A node's control plane freezes: receive but never forward or ack.

    While stuck the node drops every incoming routing update and ack
    on the floor (no acknowledgement, no application, no re-flood) and
    originates nothing; its *data plane* keeps forwarding on the frozen
    tables.  Neighbours see their updates go permanently unacked --
    the reliable-flooding blind spot this fault exists to probe.
    """

    kind = "stuck-node"

    node_id: int
    start_s: float = 0.0
    #: When the control plane unfreezes (``None`` = stuck forever).
    until_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0: {self.node_id}")
        _check_window(self.start_s, self.until_s, self.kind)

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "node_id": self.node_id}
        if self.start_s:
            out["start_s"] = self.start_s
        if self.until_s is not None:
            out["until_s"] = self.until_s
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "StuckNode":
        return cls(
            node_id=int(data["node_id"]),
            start_s=float(data.get("start_s", 0.0)),
            until_s=(
                float(data["until_s"]) if data.get("until_s") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class ReorderCircuit:
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

    link_id: int
    #: Per-dequeue probability of picking a non-head control packet.
    probability: float = 0.25
    #: Deepest queue position (1-based) that may jump the line.
    depth: int = 3
    start_s: float = 0.0
    until_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.link_id < 0:
            raise ValueError(f"link_id must be >= 0: {self.link_id}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1]: {self.probability}"
            )
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1: {self.depth}")
        _check_window(self.start_s, self.until_s, self.kind)

    def to_dict(self) -> Dict:
        out: Dict = {
            "kind": self.kind,
            "link_id": self.link_id,
            "probability": self.probability,
            "depth": self.depth,
        }
        if self.start_s:
            out["start_s"] = self.start_s
        if self.until_s is not None:
            out["until_s"] = self.until_s
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "ReorderCircuit":
        return cls(
            link_id=int(data["link_id"]),
            probability=float(data.get("probability", 0.25)),
            depth=int(data.get("depth", 3)),
            start_s=float(data.get("start_s", 0.0)),
            until_s=(
                float(data["until_s"]) if data.get("until_s") is not None
                else None
            ),
        )


#: Any adversarial fault.
AdversarialFault = Union[CorruptUpdate, BabblingNode, StuckNode, ReorderCircuit]

_BY_KIND = {
    CorruptUpdate.kind: CorruptUpdate,
    BabblingNode.kind: BabblingNode,
    StuckNode.kind: StuckNode,
    ReorderCircuit.kind: ReorderCircuit,
}


def adversarial_from_dict(data: Dict) -> AdversarialFault:
    """Dispatch one JSON object to its fault kind by its ``kind`` tag."""
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ValueError(
            f"adversarial fault needs a 'kind' tag: {data!r}"
        ) from None
    cls = _BY_KIND.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown adversarial kind {kind!r}; "
            f"known: {', '.join(ADVERSARIAL_KINDS)}"
        )
    return cls.from_dict(data)


def adversarial_stream_key(fault: AdversarialFault) -> Tuple[str, int]:
    """The (stream family, target) identity of one adversarial fault.

    Two faults with the same key would share a random stream and
    entangle their trajectories; :class:`~repro.faults.plan.FaultPlan`
    rejects such plans at construction.
    """
    if isinstance(fault, CorruptUpdate):
        return ("fault-corrupt", fault.node_id)
    if isinstance(fault, BabblingNode):
        return ("fault-babble", fault.node_id)
    if isinstance(fault, StuckNode):
        return ("stuck", fault.node_id)
    return ("fault-reorder", fault.link_id)
