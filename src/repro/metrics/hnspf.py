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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.metrics.base import LinkMetric
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
class HnspfLinkState:
    """Per-link HNM history: the averaging filter and the last report."""

    last_average: float
    last_reported: int


@dataclass
class HnspfVectorState:
    """Struct-of-arrays HNM state: one slot per link, numpy throughout."""

    bandwidth_bps: np.ndarray
    propagation_s: np.ndarray
    slope: np.ndarray
    offset: np.ndarray
    floor: np.ndarray
    max_cost: np.ndarray
    max_up: np.ndarray
    max_down: np.ndarray
    last_average: np.ndarray
    last_reported: np.ndarray


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

    # ------------------------------------------------------------------
    # Operational view (Figure 3)
    # ------------------------------------------------------------------
    def create_state(self, link: Link) -> HnspfLinkState:
        return HnspfLinkState(
            last_average=0.0, last_reported=self.initial_cost(link)
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

    def measured_cost(
        self, link: Link, state: HnspfLinkState, delay_s: float
    ) -> int:
        params = self.params_for(link)
        sample = delay_to_utilization(
            delay_s,
            link.bandwidth_bps,
            propagation_s=link.propagation_s,
            packet_bits=self.packet_bits,
        )
        average = self.smoothing * sample + (1.0 - self.smoothing) * state.last_average
        state.last_average = average

        raw = params.raw_cost(average)
        limited = self._limit_movement(raw, state.last_reported, params)
        revised = int(round(
            min(max(limited, float(self.min_cost_for(link))),
                float(params.max_cost))
        ))
        state.last_reported = revised
        return revised

    def _limit_movement(
        self, raw: float, last_reported: int, params: HnspfParams
    ) -> float:
        """Bound the change between successive reports.

        The asymmetry (``max_down = max_up - 1``) makes a cost pinned
        against its limits march up one unit per full cycle, spreading the
        reported costs of identically-loaded lines.
        """
        if not self.limit_movement:
            return raw
        ceiling = last_reported + params.max_up
        floor = last_reported - params.max_down
        return min(max(raw, float(floor)), float(ceiling))

    def change_threshold(self, link: Link) -> int:
        """"A little less than a half-hop" for the line type."""
        return self.params_for(link).min_change

    # ------------------------------------------------------------------
    # Vectorized operational view (Figure 3 over link arrays)
    # ------------------------------------------------------------------
    def create_vector_state(self, links: Sequence[Link]) -> HnspfVectorState:
        import numpy as np

        params = [self.params_for(link) for link in links]
        return HnspfVectorState(
            bandwidth_bps=np.array([l.bandwidth_bps for l in links]),
            propagation_s=np.array([l.propagation_s for l in links]),
            slope=np.array([p.slope for p in params]),
            offset=np.array([p.offset for p in params]),
            floor=np.array([float(self.min_cost_for(l)) for l in links]),
            max_cost=np.array([float(p.max_cost) for p in params]),
            max_up=np.array([float(p.max_up) for p in params]),
            max_down=np.array([float(p.max_down) for p in params]),
            last_average=np.zeros(len(links)),
            last_reported=np.array(
                [float(self.initial_cost(l)) for l in links]
            ),
        )

    def measured_costs(
        self, vector_state: HnspfVectorState, delays_s: np.ndarray
    ) -> np.ndarray:
        import numpy as np

        state = vector_state
        sample = delay_to_utilization_array(
            delays_s,
            state.bandwidth_bps,
            propagations_s=state.propagation_s,
            packet_bits=self.packet_bits,
        )
        average = (
            self.smoothing * sample
            + (1.0 - self.smoothing) * state.last_average
        )
        state.last_average = average
        raw = state.slope * average + state.offset
        if self.limit_movement:
            ceiling = state.last_reported + state.max_up
            floor = state.last_reported - state.max_down
            limited = np.minimum(np.maximum(raw, floor), ceiling)
        else:
            limited = raw
        revised = np.rint(
            np.minimum(np.maximum(limited, state.floor), state.max_cost)
        )
        state.last_reported = revised
        return revised

    # ------------------------------------------------------------------
    # Equilibrium view
    # ------------------------------------------------------------------
    def cost_at_utilization(self, link: Link, utilization: float) -> float:
        params = self.params_for(link)
        return min(
            max(params.raw_cost(utilization), float(self.min_cost_for(link))),
            float(params.max_cost),
        )

    def cost_at_utilization_array(
        self, link: Link, utilizations: np.ndarray
    ) -> np.ndarray:
        import numpy as np

        params = self.params_for(link)
        raw = params.slope * np.asarray(utilizations, dtype=float) \
            + params.offset
        return np.minimum(
            np.maximum(raw, float(self.min_cost_for(link))),
            float(params.max_cost),
        )

    def idle_cost(self, link: Link) -> float:
        return float(self.min_cost_for(link))
