"""Dynamic behaviour of the SPF loop (Figures 11 and 12).

Where :mod:`repro.analysis.equilibrium` finds *where* the loop settles,
this module traces *how* it gets there, period by period: start at some
reported cost, look up the traffic the network hands the link, convert to
a measured delay, run the **real operational metric pipeline** (averaging
filter, movement limits, clipping -- the exact code the PSN runs), report
the new cost, repeat.

The traces reproduce the paper's findings:

* D-SPF near its equilibrium converges, but from a distant start it
  diverges into a full-amplitude oscillation (the equilibrium is
  meta-stable) -- Figure 11;
* HN-SPF converges from anywhere, including from its ease-in maximum
  cost, with any residual oscillation bounded by the movement limits --
  Figure 12.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.response_map import NetworkResponseMap
from repro.metrics.base import LinkMetric
from repro.metrics.queueing import utilization_to_delay_s
from repro.topology.graph import Link


@dataclass
class CobwebTrace:
    """A period-by-period trajectory of one link's feedback loop."""

    #: Reported cost in hops, one entry per routing period (t = 0 is the
    #: starting report before any feedback).
    reported_hops: List[float]
    #: Link utilization produced by each report.
    utilizations: List[float]

    def amplitude(self, tail: int = 10) -> float:
        """Peak-to-peak swing of the last ``tail`` reported costs."""
        window = self.reported_hops[-tail:]
        return max(window) - min(window)

    def converged(self, tail: int = 10, tolerance: float = 0.25) -> bool:
        """Whether the tail of the trace has settled within ``tolerance``
        hops (movement-limited metrics may hover, not freeze)."""
        return self.amplitude(tail) <= tolerance

    def mean_tail(self, tail: int = 10) -> float:
        return statistics.mean(self.reported_hops[-tail:])


def cobweb_trace(
    metric: LinkMetric,
    link: Link,
    response: NetworkResponseMap,
    offered_load: float,
    periods: int = 60,
    start_hops: Optional[float] = None,
) -> CobwebTrace:
    """Iterate the loop using the metric's *operational* pipeline.

    Parameters
    ----------
    metric, link:
        The metric under study and the link it watches.
    response:
        The Network Response Map giving traffic as a function of cost.
    offered_load:
        Min-hop utilization of the link (Figure 10's x-axis).
    periods:
        Routing periods to simulate.
    start_hops:
        Initial reported cost in hops.  Defaults to the metric's initial
        cost -- which for HN-SPF is the ease-in maximum, reproducing
        Figure 12's "easing in a new link" trajectory.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    idle = metric.idle_cost(link)
    state = metric.create_state(link)
    if start_hops is not None:
        # Start the loop from an arbitrary advertised cost.
        state.last_reported = int(round(start_hops * idle))
        rho = float(start_hops)
    else:
        rho = metric.initial_cost(link) / idle

    reported = [rho]
    utilizations: List[float] = []
    for _ in range(periods):
        utilization = min(
            offered_load * response.traffic_fraction(reported[-1]), 1.0
        )
        utilizations.append(utilization)
        delay_s = utilization_to_delay_s(
            utilization, link.bandwidth_bps, propagation_s=link.propagation_s
        )
        cost_units = metric.measured_cost(link, state, delay_s)
        reported.append(cost_units / idle)
    return CobwebTrace(reported_hops=reported, utilizations=utilizations)
