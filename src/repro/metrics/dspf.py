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
from typing import Dict, Optional

from repro.metrics.base import LinkMetric, MetricState, clip_to_band, delay, quantize
from repro.metrics.params import DEFAULT_DSPF_PARAMS, DspfParams
from repro.topology.graph import Link
from repro.units import seconds_to_ms


@dataclass
class DspfLinkState(MetricState):
    """D-SPF state: a line's quantum and M/M/1 constants next to its band.

    Plain floats for one link, numpy arrays for many.  ``floor`` is the
    idle line's cost, which already includes the bias.
    """

    bandwidth_bps: float
    propagation_s: float
    ms_per_unit: float


class DelayMetric(LinkMetric):
    """The measured-delay link metric (D-SPF).

    Parameters
    ----------
    params:
        Optional override of the per-line-type parameter registry.
    """

    name = "D-SPF"
    # The band's ends are integers, so the runner's round after the clip
    # equals quantizing to whole units first.
    stages = (quantize, clip_to_band)
    map_stages = (delay, quantize, clip_to_band)

    def __init__(self, params: Optional[Dict[str, DspfParams]] = None) -> None:
        self.params = dict(DEFAULT_DSPF_PARAMS)
        if params:
            self.params.update(params)

    # perfbench's tracer wraps these by name in this class's own __dict__.
    measured_cost, measured_costs = LinkMetric.measured_cost, LinkMetric.measured_costs

    def params_for(self, link: Link) -> DspfParams:
        """The parameter set governing ``link``."""
        try:
            return self.params[link.line_type.name]
        except KeyError:
            raise KeyError(
                f"no D-SPF parameters for line type {link.line_type.name!r}"
            ) from None

    def create_state(self, link: Link) -> DspfLinkState:
        """An idle line, reporting the bias plus the tabled propagation term."""
        params = self.params_for(link)
        propagation_units = int(
            round(seconds_to_ms(link.propagation_s) / params.ms_per_unit)
        )
        idle = min(params.bias + propagation_units, params.max_cost)
        return DspfLinkState(
            last_reported=idle,
            floor=float(idle),
            max_cost=float(params.max_cost),
            bandwidth_bps=link.bandwidth_bps,
            propagation_s=link.propagation_s,
            ms_per_unit=params.ms_per_unit,
        )

    def change_threshold(self, link: Link) -> int:
        """Initial significance threshold: ~51 ms of delay change.

        (The PSN decays this each unsatisfied interval so an update goes
        out within 50 seconds regardless.)
        """
        return 8
