"""The packet switching node (PSN).

Everything a 1987 ARPANET node does, minus the host interface: store-and-
forward packet switching with finite output buffers, per-link delay
measurement averaged over ten-second intervals, link-cost generation
through a pluggable metric, significance-gated routing-update origination
(with the 50-second reliability cap), flooding, and incremental SPF route
maintenance.

:class:`Psn` is served on first use: :mod:`repro.psn.node` imports the
update protocol, which builds its packets from :mod:`repro.psn.packet`.
"""

from repro._lazy import lazy_exports
from repro.psn.packet import Packet, PacketKind
from repro.psn.interfaces import LinkTransmitter
from repro.psn.measurement import SignificanceCriterion
from repro.units import DOWN_COST

__getattr__ = lazy_exports(__name__, {"repro.psn.node": ("Psn",)})

__all__ = [
    "DOWN_COST",
    "LinkTransmitter",
    "Packet",
    "PacketKind",
    "Psn",
    "SignificanceCriterion",
]
