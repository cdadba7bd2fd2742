"""Min-hop: the static baseline.

Every link costs the same regardless of load, so SPF degenerates to
minimum hop count.  The paper uses min-hop as one end of the spectrum
HN-SPF sits on: *"HN-SPF ... acts like min-hop until the link utilization
exceeds 50% and then starts shedding traffic"*.  Min-hop never generates
load-driven routing updates and becomes oversubscribed the moment offered
load reaches capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.metrics.base import LinkMetric, MetricState
from repro.metrics.params import HOP_UNITS
from repro.topology.graph import Link

if TYPE_CHECKING:  # pragma: no cover - see repro.metrics.base on numpy
    import numpy as np


class MinHopMetric(LinkMetric):
    """A constant-cost metric (static shortest-hop routing).

    Its state is the bare :class:`~repro.metrics.base.MetricState`: the
    hop cost, which never moves.

    Parameters
    ----------
    hop_cost:
        The constant per-link cost (default: the reference hop of 30
        routing units, so costs are comparable across metrics).
    """

    name = "Min-Hop"

    def __init__(self, hop_cost: int = HOP_UNITS) -> None:
        if hop_cost < 1:
            raise ValueError(f"hop_cost must be >= 1, got {hop_cost}")
        self.hop_cost = hop_cost

    def create_state(self, link: Link) -> MetricState:
        return MetricState(last_reported=self.hop_cost)

    def initial_cost(self, link: Link) -> int:
        return self.hop_cost

    def cost_bounds(self, link: Link) -> Tuple[int, int]:
        return self.hop_cost, self.hop_cost

    def measured_cost(
        self, link: Link, state: MetricState, delay_s: float
    ) -> int:
        return self.hop_cost

    def measured_costs(
        self, vector_state: MetricState, delays_s: np.ndarray
    ) -> np.ndarray:
        return vector_state.last_reported

    def change_threshold(self, link: Link) -> int:
        """Effectively infinite: load never triggers an update."""
        return 10 ** 9

    def cost_at_utilization(self, link: Link, utilization: float) -> float:
        return float(self.hop_cost)

    def cost_at_utilization_array(
        self, link: Link, utilizations: np.ndarray
    ) -> np.ndarray:
        import numpy as np

        return np.full(np.shape(utilizations), float(self.hop_cost))

    def idle_cost(self, link: Link) -> float:
        return float(self.hop_cost)
