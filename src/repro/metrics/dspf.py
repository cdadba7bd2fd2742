"""D-SPF: the pre-1987 delay metric.

The link cost is the packet delay (queueing + processing measured per
packet, transmission + propagation from tables) averaged over a ten-second
interval, quantized to routing units, floored at a per-line-type *bias*
and capped at the 8-bit maximum.

Its failure mode -- the reason this paper exists -- is that the range of
permissible values is enormous (a loaded 9.6 kb/s line can report ~127x an
idle 56 kb/s line), so a congested link can look worse than *any* detour
and shed every route it carries at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.metrics.base import LinkMetric
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
class DspfLinkState:
    """Per-link D-SPF history: only the last reported cost."""

    last_reported: int


@dataclass
class DspfVectorState:
    """Struct-of-arrays D-SPF state: one slot per link."""

    ms_per_unit: np.ndarray
    bias: np.ndarray
    max_cost: np.ndarray
    initial: np.ndarray
    last_reported: np.ndarray


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

    # ------------------------------------------------------------------
    # Operational view
    # ------------------------------------------------------------------
    def create_state(self, link: Link) -> DspfLinkState:
        return DspfLinkState(last_reported=self.initial_cost(link))

    def initial_cost(self, link: Link) -> int:
        """An idle line: bias plus the tabled propagation term."""
        params = self.params_for(link)
        propagation_units = int(
            round(seconds_to_ms(link.propagation_s) / params.ms_per_unit)
        )
        return min(params.bias + propagation_units, params.max_cost)

    def measured_cost(
        self, link: Link, state: DspfLinkState, delay_s: float
    ) -> int:
        params = self.params_for(link)
        cost = params.delay_ms_to_units(seconds_to_ms(delay_s))
        cost = max(cost, self.initial_cost(link))
        state.last_reported = cost
        return cost

    def change_threshold(self, link: Link) -> int:
        """Initial significance threshold: ~51 ms of delay change.

        (The PSN decays this each unsatisfied interval so an update goes
        out within 50 seconds regardless.)
        """
        return 8

    # ------------------------------------------------------------------
    # Vectorized operational view
    # ------------------------------------------------------------------
    def create_vector_state(self, links: Sequence[Link]) -> DspfVectorState:
        import numpy as np

        params = [self.params_for(link) for link in links]
        initial = np.array([float(self.initial_cost(l)) for l in links])
        return DspfVectorState(
            ms_per_unit=np.array([p.ms_per_unit for p in params]),
            bias=np.array([float(p.bias) for p in params]),
            max_cost=np.array([float(p.max_cost) for p in params]),
            initial=initial,
            last_reported=initial.copy(),
        )

    def measured_costs(
        self, vector_state: DspfVectorState, delays_s: np.ndarray
    ) -> np.ndarray:
        import numpy as np

        state = vector_state
        units = np.rint(
            np.asarray(delays_s, dtype=float) * 1000.0 / state.ms_per_unit
        )
        cost = np.minimum(np.maximum(units, state.bias), state.max_cost)
        cost = np.maximum(cost, state.initial)
        state.last_reported = cost
        return cost

    # ------------------------------------------------------------------
    # Equilibrium view
    # ------------------------------------------------------------------
    def cost_at_utilization(self, link: Link, utilization: float) -> float:
        params = self.params_for(link)
        delay_s = utilization_to_delay_s(
            utilization, link.bandwidth_bps, propagation_s=link.propagation_s
        )
        units = seconds_to_ms(delay_s) / params.ms_per_unit
        floor = float(self.initial_cost(link))
        return min(max(units, floor), float(params.max_cost))

    def cost_at_utilization_array(
        self, link: Link, utilizations: np.ndarray
    ) -> np.ndarray:
        import numpy as np

        params = self.params_for(link)
        delays_s = utilization_to_delay_s_array(
            utilizations, link.bandwidth_bps,
            propagations_s=link.propagation_s,
        )
        units = delays_s * 1000.0 / params.ms_per_unit
        floor = float(self.initial_cost(link))
        return np.minimum(np.maximum(units, floor), float(params.max_cost))

    def idle_cost(self, link: Link) -> float:
        return float(self.initial_cost(link))
