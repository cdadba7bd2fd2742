"""Declarative fault schedules (the ``FaultPlan`` schema).

A :class:`FaultPlan` describes *what goes wrong and when* in one
simulation run, independently of any simulator instance: scripted
events (fail or restore a circuit, crash or restart a whole PSN,
partition a region), stochastic per-link flapping driven by MTBF/MTTR
exponential draws, and adversarial (Byzantine) faults -- corrupted,
babbling, stuck and reordering behaviours from
:mod:`repro.faults.adversarial`.  Plans are plain frozen dataclasses of
primitives, so they pickle into a
:class:`~repro.sim.parallel.RunSpec`'s config and round-trip through
JSON (``python -m repro simulate --faults PLAN.json``) through one
codec for every entry kind: it writes each field but an optional one
left at its empty default, and reads by coercing each value to its
field's annotated type and rejecting any key that is not a field.

The plan is pure data; :class:`~repro.faults.injector.FaultInjector`
compiles it onto a running :class:`~repro.sim.network_sim.NetworkSimulation`
through the existing ``fail_circuit_at`` / ``restore_circuit_at``
machinery.  See ``docs/robustness.md`` for the JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from repro.faults.adversarial import (
    ADVERSARIAL_KINDS,
    BY_KIND,
    AdversarialFault,
    adversarial_stream_key,
)

#: Scripted actions a :class:`FaultEvent` can perform.
ACTIONS = (
    "fail-circuit",
    "restore-circuit",
    "crash-node",
    "restart-node",
    "partition",
    "heal-partition",
)

_LINK_ACTIONS = ("fail-circuit", "restore-circuit")
_NODE_ACTIONS = ("crash-node", "restart-node")
_GROUP_ACTIONS = ("partition", "heal-partition")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault at a fixed simulation time.

    Parameters
    ----------
    at_s:
        Simulation time the event fires.
    action:
        One of :data:`ACTIONS`.
    link_id:
        The circuit concerned (``fail-circuit`` / ``restore-circuit``;
        either direction of the duplex circuit names it).
    node_id:
        The PSN concerned (``crash-node`` / ``restart-node``: all of the
        node's circuits go down / come back).
    nodes:
        One side of the cut (``partition`` / ``heal-partition``: every
        circuit with exactly one endpoint in the group fails / recovers).
    """

    at_s: float
    action: str
    link_id: Optional[int] = None
    node_id: Optional[int] = None
    nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.at_s < 0:
            raise ValueError(f"event time must be >= 0: {self.at_s}")
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; known: {', '.join(ACTIONS)}"
            )
        if self.action in _LINK_ACTIONS and self.link_id is None:
            raise ValueError(f"{self.action} needs a link_id: {self}")
        if self.action in _NODE_ACTIONS and self.node_id is None:
            raise ValueError(f"{self.action} needs a node_id: {self}")
        if self.action in _GROUP_ACTIONS and not self.nodes:
            raise ValueError(f"{self.action} needs a nodes group: {self}")


@dataclass(frozen=True)
class LinkFlap:
    """Stochastic up/down flapping of one circuit.

    The circuit alternates between up periods (exponential with mean
    ``mtbf_s``) and down periods (exponential with mean ``mttr_s``).
    Every draw comes from the run's dedicated
    ``fault-flap-<link_id>`` :class:`~repro.des.random_streams.RandomStreams`
    stream, so a flapping link's trajectory is a pure function of the
    master seed and its own link id -- adding a flap to one circuit
    never shifts another circuit's draws, and same-seed runs are
    bit-identical.
    """

    link_id: int
    #: Mean up time before a failure (seconds).
    mtbf_s: float
    #: Mean repair time (seconds).
    mttr_s: float
    #: No failures are injected before this time.
    start_s: float = 0.0
    #: No *new* failures after this time (a pending repair still
    #: completes, so the run ends with the circuit recovering).
    until_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.link_id < 0:
            raise ValueError(f"link_id must be >= 0: {self.link_id}")
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise ValueError(
                f"mtbf/mttr must be positive: {self.mtbf_s}, {self.mttr_s}"
            )
        if self.start_s < 0:
            raise ValueError(f"start must be >= 0: {self.start_s}")
        if self.until_s is not None and self.until_s <= self.start_s:
            raise ValueError(
                f"until ({self.until_s}) must follow start ({self.start_s})"
            )


#: Canonical same-timestamp ordering of scripted events: every
#: "down" transition fires before every "up" transition scheduled at
#: the same instant (restore-after-fail), so a plan pairing a fail and
#: a restore of one circuit at one timestamp deterministically ends
#: with the circuit *up* -- previously the outcome depended on the
#: plan's tuple order.  Within one rank the plan's order is kept
#: (the sort is stable).
_ACTION_RANK = {
    "fail-circuit": 0,
    "crash-node": 0,
    "partition": 0,
    "restore-circuit": 1,
    "restart-node": 1,
    "heal-partition": 1,
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete fault workload: scripted events, stochastic flaps,
    and adversarial (Byzantine) faults.

    Attach to a run with ``ScenarioConfig(faults=plan)``; the plan is
    picklable (it rides :class:`~repro.sim.parallel.RunSpec` configs
    into spawned :func:`~repro.sim.parallel.run_many` workers) and JSON-serializable (:meth:`to_json` /
    :meth:`from_json`, ``--faults PLAN.json`` on the CLI).

    Scripted events are canonicalized at construction: they are stably
    sorted by time, with same-timestamp ties broken *fail before
    restore* (see :data:`_ACTION_RANK`), so simultaneous fail+restore
    of one circuit has a defined outcome.
    """

    events: Tuple[FaultEvent, ...] = ()
    flaps: Tuple[LinkFlap, ...] = ()
    adversarial: Tuple[AdversarialFault, ...] = ()

    def __post_init__(self) -> None:
        events = sorted(
            self.events,
            key=lambda e: (e.at_s, _ACTION_RANK.get(e.action, 2)),
        )
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "flaps", tuple(self.flaps))
        object.__setattr__(self, "adversarial", tuple(self.adversarial))
        flapped = [flap.link_id for flap in self.flaps]
        if len(set(flapped)) != len(flapped):
            raise ValueError(
                f"one flap per circuit: duplicate link ids in {flapped}"
            )
        # Two same-kind adversaries on one target would share a random
        # stream and entangle their draws; reject the plan outright.
        seen: Dict[Tuple[str, int], AdversarialFault] = {}
        for fault in self.adversarial:
            key = adversarial_stream_key(fault)
            if key in seen:
                raise ValueError(
                    f"duplicate adversarial fault on the same target: "
                    f"{seen[key]} and {fault}"
                )
            seen[key] = fault

    def __bool__(self) -> bool:
        return bool(self.events or self.flaps or self.adversarial)

    @classmethod
    def single_outage(
        cls, link_id: int, fail_at_s: float, restore_at_s: float
    ) -> "FaultPlan":
        """The classic one-circuit fail/restore scenario."""
        if restore_at_s <= fail_at_s:
            raise ValueError(
                f"restore ({restore_at_s}) must follow fail ({fail_at_s})"
            )
        return cls(events=(
            FaultEvent(fail_at_s, "fail-circuit", link_id=link_id),
            FaultEvent(restore_at_s, "restore-circuit", link_id=link_id),
        ))

    def to_dict(self) -> Dict:
        out: Dict = {
            "events": [_entry_to_dict(event) for event in self.events],
            "flaps": [_entry_to_dict(flap) for flap in self.flaps],
        }
        if self.adversarial:
            out["adversarial"] = [
                {"kind": fault.kind, **_entry_to_dict(fault)}
                for fault in self.adversarial
            ]
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        unknown = set(data) - {"events", "flaps", "adversarial"}
        if unknown:
            raise ValueError(
                f"unknown fault plan keys: {sorted(unknown)} "
                f"(expected 'events', 'flaps' and/or 'adversarial')"
            )
        return cls(
            events=tuple(
                _entry_from_dict(FaultEvent, e) for e in data.get("events", ())
            ),
            flaps=tuple(
                _entry_from_dict(LinkFlap, f) for f in data.get("flaps", ())
            ),
            adversarial=tuple(
                adversarial_from_dict(a) for a in data.get("adversarial", ())
            ),
        )

    def to_json(self, path: str) -> str:
        """Write the plan as JSON; returns ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


# ----------------------------------------------------------------------
# The one codec of plan entries (events, flaps, adversarial kinds)
# ----------------------------------------------------------------------
def _entry_to_dict(entry) -> Dict:
    """Every field of one entry, except an optional one left at its
    empty default (``0``, ``None``, ``()``); tuples become lists."""
    out: Dict = {}
    for spec in fields(entry):
        value = getattr(entry, spec.name)
        if spec.default in (0, None, ()) and value == spec.default:
            continue
        out[spec.name] = list(value) if isinstance(value, tuple) else value
    return out


def _coerce(hint: Any, value: Any) -> Any:
    """``value`` as the annotated type ``hint`` (``Optional[X]``,
    ``Tuple[X, ...]`` or a plain type)."""
    if get_origin(hint) is Union:
        return None if value is None else _coerce(get_args(hint)[0], value)
    if get_origin(hint) is tuple:
        return tuple(_coerce(get_args(hint)[0], item) for item in value)
    return hint(value)


def _entry_from_dict(cls, data: Dict):
    """Build one ``cls`` entry, coercing each value to its field's
    annotated type; a key that is not a field is an error."""
    names = [spec.name for spec in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(
            f"unknown {getattr(cls, 'kind', cls.__name__)} keys {unknown}; "
            f"known: {', '.join(names)}"
        )
    hints = get_type_hints(cls)
    return cls(**{k: _coerce(hints[k], v) for k, v in data.items()})


def adversarial_from_dict(data: Dict) -> AdversarialFault:
    """Dispatch one JSON object to its fault kind by its ``kind`` tag."""
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ValueError(
            f"adversarial fault needs a 'kind' tag: {data!r}"
        ) from None
    if kind not in BY_KIND:
        raise ValueError(
            f"unknown adversarial kind {kind!r}; "
            f"known: {', '.join(ADVERSARIAL_KINDS)}"
        )
    return _entry_from_dict(
        BY_KIND[kind], {k: v for k, v in data.items() if k != "kind"}
    )


def load_fault_plan(path: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file (the CLI entry point)."""
    return FaultPlan.from_json(path)
