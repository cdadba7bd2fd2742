"""Shared units and network-wide constants.

Conventions used throughout the library:

* **time** is in **seconds** (floats) inside the simulator,
* **delay measurements** are reported in **milliseconds** at the metric
  boundary (matching the paper's tables),
* **link costs** are in **routing units**, the dimensionless 8-bit quantity
  carried in ARPANET routing updates.  One *hop* equals the ambient cost of
  an idle link of the reference line type (30 units for HN-SPF on a 56 kb/s
  terrestrial line; 2 units of bias for D-SPF on the same line),
* **bandwidth** is in **bits per second**,
* **packet sizes** are in **bits**.

The paper's network-wide average packet size -- used by the M/M/1
delay-to-utilization transform in the HN-SPF module -- is 600 bits.
"""

from __future__ import annotations

#: Network-wide average packet size used by the M/M/1 model (bits).
AVERAGE_PACKET_BITS = 600.0

#: The metric field in a routing update is 8 bits wide.
MAX_ROUTING_UNITS = 255

#: Delay-measurement averaging interval in both D-SPF and HN-SPF (seconds).
MEASUREMENT_INTERVAL_S = 10.0

#: Burst gap: routing activity closer than this chains into one storm
#: (resilience summary) or convergence episode (trace spans).  Half the
#: measurement interval, so two ordinary periodic reports never merge.
CONVERGENCE_QUIET_S = MEASUREMENT_INTERVAL_S / 2.0

#: Update cost advertising a dead link (anything >= this maps to inf).
DOWN_COST = 2 ** 20

#: Maximum time between routing updates for a link even with no change
#: (the significance criterion decays so an update goes out by then).
MAX_UPDATE_INTERVAL_S = 50.0

#: Milliseconds of measured delay represented by one D-SPF routing unit.
#: Chosen so that the paper's anchors hold: a 56 kb/s line's bias is 2 units
#: (~12.8 ms of transmission + nominal processing) and a saturated 9.6 kb/s
#: line pegs near the 8-bit cap, making it ~127x an idle 56 kb/s line.
DSPF_MS_PER_UNIT = 6.4

#: Neighbour-table exchange period of the original 1969 algorithm (seconds).
BELLMAN_FORD_EXCHANGE_S = 2.0 / 3.0

#: Speed-of-light propagation figures (seconds).
SATELLITE_PROPAGATION_S = 0.260  # geostationary single hop, up + down
TERRESTRIAL_PROPAGATION_S = 0.010  # typical long-haul ARPANET trunk


def bits_to_seconds(bits: float, bandwidth_bps: float) -> float:
    """Transmission time of ``bits`` on a ``bandwidth_bps`` link."""
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
    return bits / bandwidth_bps


def seconds_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return seconds * 1000.0


def ms_to_seconds(ms: float) -> float:
    """Convert milliseconds to seconds."""
    return ms / 1000.0


def kbps(value: float) -> float:
    """Kilobits-per-second to bits-per-second."""
    return value * 1000.0
