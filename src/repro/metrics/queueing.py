"""M/M/1 queueing transforms.

Both the paper's HN-SPF module and its equilibrium model convert between
packet delay and link utilization with *"a simple M/M/1 queueing model ...
with the service time being the network-wide average packet size (600
bits/packet) divided by the trunk's bandwidth"*.

For an M/M/1 queue at utilization ``u`` the expected time in system
(queueing + transmission) is ``S / (1 - u)`` where ``S`` is the mean service
time; total link delay adds the propagation term.  Delays are in seconds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.units import AVERAGE_PACKET_BITS

if TYPE_CHECKING:  # pragma: no cover - see repro.metrics.base on numpy
    import numpy as np

#: Utilizations are clamped just below 1 so the delay stays finite.
MAX_MODEL_UTILIZATION = 0.999


def service_time_s(
    bandwidth_bps: float, packet_bits: float = AVERAGE_PACKET_BITS
) -> float:
    """Mean service (transmission) time of an average packet."""
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
    if packet_bits <= 0:
        raise ValueError(f"packet size must be positive, got {packet_bits}")
    return packet_bits / bandwidth_bps


def utilization_to_delay_s(
    utilization: float,
    bandwidth_bps: float,
    propagation_s: float = 0.0,
    packet_bits: float = AVERAGE_PACKET_BITS,
) -> float:
    """Expected per-packet link delay at the given utilization.

    ``delay = S / (1 - u) + propagation``; the utilization is clamped to
    ``[0, MAX_MODEL_UTILIZATION]`` so saturated links report a large finite
    delay rather than infinity (mirroring the PSN's bounded measurements).
    """
    if utilization < 0:
        raise ValueError(f"utilization must be >= 0, got {utilization}")
    clamped = min(utilization, MAX_MODEL_UTILIZATION)
    service = service_time_s(bandwidth_bps, packet_bits)
    return service / (1.0 - clamped) + propagation_s


def delay_to_utilization(
    delay_s: float,
    bandwidth_bps: float,
    propagation_s: float = 0.0,
    packet_bits: float = AVERAGE_PACKET_BITS,
) -> float:
    """Invert the M/M/1 model: estimate utilization from measured delay.

    This is the first stage of the HN-SPF pipeline (Figure 3's
    ``delay_to_utilization`` table).  Delays at or below the zero-load
    delay (service + propagation) map to utilization 0; the result is
    clamped to ``[0, MAX_MODEL_UTILIZATION]``.
    """
    service = service_time_s(bandwidth_bps, packet_bits)
    in_system = delay_s - propagation_s
    if in_system <= service:
        return 0.0
    utilization = 1.0 - service / in_system
    return min(max(utilization, 0.0), MAX_MODEL_UTILIZATION)


# ----------------------------------------------------------------------
# Vectorized transforms: one numpy expression over whole link vectors.
# Element-for-element these perform the exact operations of the scalar
# functions above (same order, same clamps), so mixing the two paths
# can never change a result.
# ----------------------------------------------------------------------
def utilization_to_delay_s_array(
    utilizations: np.ndarray,
    bandwidths_bps: np.ndarray,
    propagations_s: np.ndarray | float = 0.0,
    packet_bits: float = AVERAGE_PACKET_BITS,
) -> np.ndarray:
    """Vector form of :func:`utilization_to_delay_s`."""
    import numpy as np

    u = np.asarray(utilizations, dtype=float)
    if np.any(u < 0):
        raise ValueError(f"utilizations must be >= 0, got {u.min()}")
    service = packet_bits / np.asarray(bandwidths_bps, dtype=float)
    clamped = np.minimum(u, MAX_MODEL_UTILIZATION)
    return service / (1.0 - clamped) + propagations_s


def delay_to_utilization_array(
    delays_s: np.ndarray,
    bandwidths_bps: np.ndarray,
    propagations_s: np.ndarray | float = 0.0,
    packet_bits: float = AVERAGE_PACKET_BITS,
) -> np.ndarray:
    """Vector form of :func:`delay_to_utilization`."""
    import numpy as np

    delays = np.asarray(delays_s, dtype=float)
    service = packet_bits / np.asarray(bandwidths_bps, dtype=float)
    in_system = delays - propagations_s
    with np.errstate(divide="ignore", invalid="ignore"):
        utilization = 1.0 - service / in_system
    utilization = np.where(in_system <= service, 0.0, utilization)
    return np.minimum(np.maximum(utilization, 0.0), MAX_MODEL_UTILIZATION)
