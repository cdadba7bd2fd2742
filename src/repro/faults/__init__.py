"""Fault injection and resilience verification.

``repro.faults`` turns line up/down behavior from a hand-scripted
scenario into a studied workload: declarative fault schedules
(:class:`FaultPlan`), a compiler onto the simulator
(:class:`FaultInjector`), and a runtime checker of the paper's metric
guarantees (:class:`InvariantMonitor`).  Attach both through
``ScenarioConfig(faults=..., check_invariants=...)``.

Beyond fail-stop faults, plans carry adversarial (Byzantine) kinds --
:class:`CorruptUpdate`, :class:`BabblingNode`, :class:`StuckNode`,
:class:`ReorderCircuit` (see :mod:`repro.faults.adversarial`) -- whose
matching defense layer is :mod:`repro.routing.defense`
(``ScenarioConfig(defenses=...)``).
"""

from repro.faults.adversarial import (
    ADVERSARIAL_KINDS,
    AdversarialFault,
    BabblingNode,
    CorruptUpdate,
    ReorderCircuit,
    StuckNode,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    INVARIANTS,
    InvariantMonitor,
    InvariantViolation,
    InvariantViolationError,
)
from repro.faults.plan import (
    ACTIONS,
    FaultEvent,
    FaultPlan,
    LinkFlap,
    adversarial_from_dict,
    load_fault_plan,
)

__all__ = [
    "ACTIONS",
    "ADVERSARIAL_KINDS",
    "AdversarialFault",
    "BabblingNode",
    "CorruptUpdate",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "INVARIANTS",
    "InvariantMonitor",
    "InvariantViolation",
    "InvariantViolationError",
    "LinkFlap",
    "ReorderCircuit",
    "StuckNode",
    "adversarial_from_dict",
    "load_fault_plan",
]
