"""HN-SPF: the revised (hop-normalized) link metric.

This is the paper's contribution.  The HN-SPF Module (HNM) transforms the
measured ten-second average delay before it is flooded, exactly following
the pseudocode of Figure 3:

.. code-block:: none

    Function HN-SPF(Measured_Delay, Line_Type) returns Reported_Cost
      Sample_Utilization  = delay_to_utilization[Measured_Delay]
      Average_Utilization = .5 * Sample_Utilization + .5 * Last_Average
      Last_Average        = Average_Utilization           (stored per link)
      Raw_Cost     = Slope[Line_Type] * Average_Utilization + Offset[Line_Type]
      Limited_Cost = Limit_Movement(Raw_Cost, Last_Reported, Line_Type)
      Revised_Cost = Clip(Limited_Cost, Max[Line_Type], Min[Line_Type])
      Last_Reported = Revised_Cost                        (stored per link)

Each line is a stage of :data:`HNSPF_STAGES` (see
:mod:`repro.metrics.base`), and the ease-in of a new link is the last.

Key behaviours reproduced here:

* **normalization to hops** -- the cost is bounded so a link can look at
  most ~2 hops worse than an idle link of its class, so routes are shed
  *gradually*, nearest-alternate-path first;
* **movement limits** -- the cost moves at most "a little more than a
  half-hop" up per period and one unit less down, bounding oscillation
  amplitude and making equal-cost links spread ("march up"), the paper's
  counter to the epsilon problem;
* **ease-in** -- a link that comes up starts at its *maximum* cost and
  pulls in traffic a little per period, protecting the network's
  meta-stable equilibria;
* **insensitivity below threshold** -- the cost is flat until utilization
  exceeds a per-line-type threshold (50% for 56 kb/s terrestrial), making
  routing delay-sensitive when idle and capacity-sensitive when loaded.

An ablation is the chain with one stage removed: without ``average`` the
sample is used as is, without ``limit`` the cost jumps freely within its
band, and without ``ease_in`` a new link starts at the band's bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.metrics.base import (
    LinkMetric, MetricState, Stage, average, clip_to_band, ease_in, limit, linear, utilization,
)
from repro.metrics.params import DEFAULT_HNSPF_PARAMS, HnspfParams
from repro.topology.graph import Link

#: Figure 3, then the ease-in of a new link.
HNSPF_STAGES = (utilization, average, linear, limit, clip_to_band, ease_in)


@dataclass
class HnspfLinkState(MetricState):
    """HNM state: a line's Figure 3 constants next to its history.

    Plain floats for one link, numpy arrays for many.
    """

    bandwidth_bps: float
    propagation_s: float
    slope: float
    offset: float
    max_up: float
    max_down: float
    last_average: float


class HopNormalizedMetric(LinkMetric):
    """The revised ARPANET link metric (HN-SPF).

    Parameters
    ----------
    params:
        Optional per-line-type parameter overrides (the paper envisions
        "parameter sets ... tailored to the needs of individual networks").
    stages:
        The operational chain; the paper's is :data:`HNSPF_STAGES`.  Pass
        it with a stage removed for an ablation study.
    """

    name = "HN-SPF"
    map_stages = (linear, clip_to_band)

    def __init__(
        self,
        params: Optional[Dict[str, HnspfParams]] = None,
        stages: Sequence[Stage] = HNSPF_STAGES,
    ) -> None:
        self.params = dict(DEFAULT_HNSPF_PARAMS)
        if params:
            self.params.update(params)
        self.stages = tuple(stages)

    # perfbench's tracer wraps these by name in this class's own __dict__.
    measured_cost, measured_costs = LinkMetric.measured_cost, LinkMetric.measured_costs

    def params_for(self, link: Link) -> HnspfParams:
        """The parameter set governing ``link``."""
        try:
            return self.params[link.line_type.name]
        except KeyError:
            raise KeyError(
                f"no HN-SPF parameters for line type {link.line_type.name!r}"
            ) from None

    def create_state(self, link: Link) -> HnspfLinkState:
        params = self.params_for(link)
        floor = self.min_cost_for(link)
        return HnspfLinkState(
            last_reported=params.max_cost if ease_in in self.stages else floor,
            floor=float(floor),
            max_cost=float(params.max_cost),
            bandwidth_bps=link.bandwidth_bps,
            propagation_s=link.propagation_s,
            slope=params.slope,
            offset=params.offset,
            max_up=float(params.max_up),
            max_down=float(params.max_down),
            last_average=0.0,
        )

    def min_cost_for(self, link: Link) -> int:
        """Lower bound for this specific link.

        The paper makes the lower bound "a slowly increasing function of
        the configured propagation delay" on top of the line-type minimum;
        we add one unit per 100 ms of propagation beyond the line type's
        nominal value (terrestrial lines differ by a few ms, so in
        practice the line-type minimum dominates, as in the paper).
        """
        params = self.params_for(link)
        extra_s = max(
            link.propagation_s - link.line_type.default_propagation_s, 0.0
        )
        bump = int(extra_s / 0.100)
        return min(params.min_cost + bump, params.max_cost)

    def change_threshold(self, link: Link) -> int:
        """"A little less than a half-hop" for the line type."""
        return self.params_for(link).min_change
