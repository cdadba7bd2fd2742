"""Link metrics: D-SPF (delay), HN-SPF (revised), and min-hop.

The metric is the only thing the July 1987 revision changed -- route
computation stayed SPF.  All three metrics implement
:class:`~repro.metrics.base.LinkMetric`, so the simulator and the analysis
package are metric-agnostic.  Each is a chain of stages (PAPER.md
section 1's pipeline, :mod:`repro.metrics.base`) over a state class
(:class:`HnspfLinkState`, :class:`DspfLinkState`, or the bare
:class:`MetricState` for min-hop) that holds one link as plain floats or
many as numpy arrays; an ablation is a chain with one stage removed.

>>> from repro.metrics import HopNormalizedMetric
>>> from repro.topology import build_arpanet_1987
>>> net = build_arpanet_1987()
>>> metric = HopNormalizedMetric()
>>> link = net.links[0]
>>> metric.cost_at_utilization(link, 0.25) == metric.idle_cost(link)
True
>>> metric.cost_at_utilization(link, 1.0)
90.0
>>> metric.cost_bounds(link)
(30, 90)
"""

from repro.metrics.base import LinkMetric, MetricState
from repro.metrics.dspf import DelayMetric, DspfLinkState
from repro.metrics.hnspf import HNSPF_STAGES, HnspfLinkState, HopNormalizedMetric
from repro.metrics.minhop import MinHopMetric
from repro.metrics.params import (
    DEFAULT_DSPF_PARAMS,
    DEFAULT_HNSPF_PARAMS,
    HOP_UNITS,
    DspfParams,
    HnspfParams,
)
from repro.metrics.queueing import (
    delay_to_utilization,
    service_time_s,
    utilization_to_delay_s,
)

__all__ = [
    "DEFAULT_DSPF_PARAMS",
    "DEFAULT_HNSPF_PARAMS",
    "DelayMetric",
    "DspfLinkState",
    "DspfParams",
    "HNSPF_STAGES",
    "HOP_UNITS",
    "HnspfLinkState",
    "HnspfParams",
    "HopNormalizedMetric",
    "LinkMetric",
    "MetricState",
    "MinHopMetric",
    "delay_to_utilization",
    "service_time_s",
    "utilization_to_delay_s",
]
