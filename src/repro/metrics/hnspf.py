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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.metrics.base import LinkMetric, MetricState, clip, clip_array
from repro.metrics.params import DEFAULT_HNSPF_PARAMS, HnspfParams
from repro.metrics.queueing import (
    delay_to_utilization,
    delay_to_utilization_array,
)
from repro.topology.graph import Link
from repro.units import AVERAGE_PACKET_BITS

if TYPE_CHECKING:  # pragma: no cover - see repro.metrics.base on numpy
    import numpy as np


@dataclass
class HnspfLinkState(MetricState):
    """HNM state: a line's Figure 3 constants next to its history.

    Plain floats for one link, numpy arrays for many.  With movement
    limiting off, ``max_up`` and ``max_down`` are infinite.
    """

    bandwidth_bps: float
    propagation_s: float
    slope: float
    offset: float
    floor: float
    max_cost: float
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
    smoothing:
        Weight of the new sample in the recursive averaging filter
        (paper value 0.5).
    ease_in:
        Whether new links start at their maximum cost (paper behaviour).
        Disable only for controlled experiments.
    packet_bits:
        Average packet size used by the delay-to-utilization table.
    limit_movement:
        Whether successive reports obey the per-period movement limits
        (paper behaviour).  Disable only for ablation studies.
    """

    name = "HN-SPF"

    def __init__(
        self,
        params: Optional[Dict[str, HnspfParams]] = None,
        smoothing: float = 0.5,
        ease_in: bool = True,
        packet_bits: float = AVERAGE_PACKET_BITS,
        limit_movement: bool = True,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.params = dict(DEFAULT_HNSPF_PARAMS)
        if params:
            self.params.update(params)
        self.smoothing = smoothing
        self.ease_in = ease_in
        self.packet_bits = packet_bits
        self.limit_movement = limit_movement

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
        lo, hi = self.cost_bounds(link)
        limits = self.movement_limits(link) or (math.inf, math.inf)
        return HnspfLinkState(
            last_reported=self.initial_cost(link),
            bandwidth_bps=link.bandwidth_bps,
            propagation_s=link.propagation_s,
            slope=params.slope,
            offset=params.offset,
            floor=float(lo),
            max_cost=float(hi),
            max_up=float(limits[0]),
            max_down=float(limits[1]),
            last_average=0.0,
        )

    def initial_cost(self, link: Link) -> int:
        """Ease-in: a link that comes up advertises its *maximum* cost."""
        params = self.params_for(link)
        if self.ease_in:
            return params.max_cost
        return self.min_cost_for(link)

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

    def cost_bounds(self, link: Link) -> Tuple[int, int]:
        return self.min_cost_for(link), self.params_for(link).max_cost

    def movement_limits(self, link: Link) -> Optional[Tuple[int, int]]:
        """"A little more than a half-hop" up, one unit less down.

        The asymmetry (``max_down = max_up - 1``) makes a cost pinned
        against its limits march up one unit per full cycle, spreading the
        reported costs of identically-loaded lines.
        """
        if not self.limit_movement:
            return None
        params = self.params_for(link)
        return params.max_up, params.max_down

    def change_threshold(self, link: Link) -> int:
        """"A little less than a half-hop" for the line type."""
        return self.params_for(link).min_change

    # ------------------------------------------------------------------
    # Figure 3, written once for one link (clip, round) or many
    # (clip_array, np.rint)
    # ------------------------------------------------------------------
    def _report(self, state: HnspfLinkState, sample, clip, rint):
        """Average the sample utilization, map, limit, clip and report."""
        average = (
            self.smoothing * sample
            + (1.0 - self.smoothing) * state.last_average
        )
        state.last_average = average
        state.last_reported = rint(
            self._cost(state, average, clip, state.last_reported)
        )
        return state.last_reported

    @staticmethod
    def _cost(state: HnspfLinkState, utilization, clip, last_reported=None):
        """Per-line-type linear map, Limit_Movement against
        ``last_reported`` (when given), then Clip to the cost band."""
        cost = state.slope * utilization + state.offset
        if last_reported is not None:
            cost = clip(
                cost,
                last_reported - state.max_down,
                last_reported + state.max_up,
            )
        return clip(cost, state.floor, state.max_cost)

    def measured_cost(
        self, link: Link, state: HnspfLinkState, delay_s: float
    ) -> int:
        return self._report(state, delay_to_utilization(
            delay_s, state.bandwidth_bps,
            propagation_s=state.propagation_s, packet_bits=self.packet_bits,
        ), clip, round)

    def measured_costs(
        self, vector_state: HnspfLinkState, delays_s: np.ndarray
    ) -> np.ndarray:
        import numpy as np

        return self._report(vector_state, delay_to_utilization_array(
            delays_s, vector_state.bandwidth_bps,
            propagations_s=vector_state.propagation_s,
            packet_bits=self.packet_bits,
        ), clip_array, np.rint)

    # ------------------------------------------------------------------
    # Equilibrium view: the map and clip alone
    # ------------------------------------------------------------------
    def cost_at_utilization(self, link: Link, utilization: float) -> float:
        return self._cost(self.create_state(link), utilization, clip)

    def cost_at_utilization_array(
        self, link: Link, utilizations: np.ndarray
    ) -> np.ndarray:
        import numpy as np

        return self._cost(
            self.create_state(link),
            np.asarray(utilizations, dtype=float),
            clip_array,
        )

    def idle_cost(self, link: Link) -> float:
        return float(self.min_cost_for(link))
