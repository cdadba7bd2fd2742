"""Min-hop: the static baseline.

Every link costs the same regardless of load, so SPF degenerates to
minimum hop count.  The paper uses min-hop as one end of the spectrum
HN-SPF sits on: *"HN-SPF ... acts like min-hop until the link utilization
exceeds 50% and then starts shedding traffic"*.  Min-hop never generates
load-driven routing updates and becomes oversubscribed the moment offered
load reaches capacity.
"""

from __future__ import annotations

from repro.metrics.base import LinkMetric, MetricState, clip_to_band
from repro.metrics.params import HOP_UNITS
from repro.topology.graph import Link


class MinHopMetric(LinkMetric):
    """A constant-cost metric (static shortest-hop routing).

    Its state is the bare :class:`~repro.metrics.base.MetricState` with a
    one-point band, the hop cost, so both chains are the clip to it.

    Parameters
    ----------
    hop_cost:
        The constant per-link cost (default: the reference hop of 30
        routing units, so costs are comparable across metrics).
    """

    name = "Min-Hop"
    stages = map_stages = (clip_to_band,)

    def __init__(self, hop_cost: int = HOP_UNITS) -> None:
        if hop_cost < 1:
            raise ValueError(f"hop_cost must be >= 1, got {hop_cost}")
        self.hop_cost = hop_cost

    def create_state(self, link: Link) -> MetricState:
        hop = float(self.hop_cost)
        return MetricState(last_reported=self.hop_cost, floor=hop, max_cost=hop)

    def change_threshold(self, link: Link) -> int:
        """Effectively infinite: load never triggers an update."""
        return 10 ** 9
