"""D-SPF: the pre-1987 delay metric.

The link cost is the packet delay (queueing + processing measured per
packet, transmission + propagation from tables) averaged over a ten-second
interval, quantized to routing units, floored at the idle line's cost
(the per-line-type *bias* plus the tabled propagation term) and capped at
the 8-bit maximum.

Its failure mode -- the reason this paper exists -- is that the range of
permissible values is enormous (a loaded 9.6 kb/s line can report ~127x an
idle 56 kb/s line), so a congested link can look worse than *any* detour
and shed every route it carries at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.metrics.base import LinkMetric, MetricState, clip, clip_array
from repro.metrics.params import DEFAULT_DSPF_PARAMS, DspfParams
from repro.metrics.queueing import (
    utilization_to_delay_s,
    utilization_to_delay_s_array,
)
from repro.topology.graph import Link
from repro.units import seconds_to_ms

if TYPE_CHECKING:  # pragma: no cover - see repro.metrics.base on numpy
    import numpy as np


@dataclass
class DspfLinkState(MetricState):
    """D-SPF state: a line's quantum and cost band next to its last report.

    Plain floats for one link, numpy arrays for many.  ``floor`` is the
    idle line's cost, which already includes the bias.
    """

    ms_per_unit: float
    floor: float
    max_cost: float


class DelayMetric(LinkMetric):
    """The measured-delay link metric (D-SPF).

    Parameters
    ----------
    params:
        Optional override of the per-line-type parameter registry.
    """

    name = "D-SPF"

    def __init__(self, params: Optional[Dict[str, DspfParams]] = None) -> None:
        self.params = dict(DEFAULT_DSPF_PARAMS)
        if params:
            self.params.update(params)

    def params_for(self, link: Link) -> DspfParams:
        """The parameter set governing ``link``."""
        try:
            return self.params[link.line_type.name]
        except KeyError:
            raise KeyError(
                f"no D-SPF parameters for line type {link.line_type.name!r}"
            ) from None

    def create_state(self, link: Link) -> DspfLinkState:
        lo, hi = self.cost_bounds(link)
        return DspfLinkState(
            last_reported=self.initial_cost(link),
            ms_per_unit=self.params_for(link).ms_per_unit,
            floor=float(lo),
            max_cost=float(hi),
        )

    def initial_cost(self, link: Link) -> int:
        """An idle line: bias plus the tabled propagation term."""
        params = self.params_for(link)
        propagation_units = int(
            round(seconds_to_ms(link.propagation_s) / params.ms_per_unit)
        )
        return min(params.bias + propagation_units, params.max_cost)

    def cost_bounds(self, link: Link) -> Tuple[int, int]:
        return self.initial_cost(link), self.params_for(link).max_cost

    def change_threshold(self, link: Link) -> int:
        """Initial significance threshold: ~51 ms of delay change.

        (The PSN decays this each unsatisfied interval so an update goes
        out within 50 seconds regardless.)
        """
        return 8

    # ------------------------------------------------------------------
    # The transform, written once for one link (clip, round) or many
    # (clip_array, np.rint).  The band's ends are integers, so rounding
    # after the clip equals quantizing first.
    # ------------------------------------------------------------------
    def _report(self, state: DspfLinkState, delay_s, clip, rint):
        """Quantize the clipped delay and report it."""
        state.last_reported = rint(self._cost(state, delay_s, clip))
        return state.last_reported

    @staticmethod
    def _cost(state: DspfLinkState, delay_s, clip):
        """A delay in routing units, clipped to the link's cost band."""
        return clip(
            delay_s * 1000.0 / state.ms_per_unit, state.floor, state.max_cost
        )

    def measured_cost(
        self, link: Link, state: DspfLinkState, delay_s: float
    ) -> int:
        return self._report(state, delay_s, clip, round)

    def measured_costs(
        self, vector_state: DspfLinkState, delays_s: np.ndarray
    ) -> np.ndarray:
        import numpy as np

        return self._report(
            vector_state, np.asarray(delays_s, dtype=float),
            clip_array, np.rint,
        )

    # ------------------------------------------------------------------
    # Equilibrium view: the M/M/1 delay, unquantized
    # ------------------------------------------------------------------
    def cost_at_utilization(self, link: Link, utilization: float) -> float:
        return self._cost(self.create_state(link), utilization_to_delay_s(
            utilization, link.bandwidth_bps, propagation_s=link.propagation_s
        ), clip)

    def cost_at_utilization_array(
        self, link: Link, utilizations: np.ndarray
    ) -> np.ndarray:
        return self._cost(self.create_state(link), utilization_to_delay_s_array(
            utilizations, link.bandwidth_bps,
            propagations_s=link.propagation_s,
        ), clip_array)

    def idle_cost(self, link: Link) -> float:
        return float(self.initial_cost(link))
