"""A foreign metric as a stage list, after Jonglez, Boutier & Chroboczek,
"A delay-based routing metric" (Babel's RTT metric).

A smoothed delay maps linearly onto a bounded penalty over a base cost,
then runs through the library's movement limit and band clip.  It lives
with the tests: a metric outside ``repro`` needs only stages and a state.
"""

from dataclasses import dataclass

from repro.metrics.base import LinkMetric, MetricState, clip_to_band, delay, limit
from repro.metrics.queueing import service_time_s

#: Weight of the old value in the smoothed delay (Babel's 0.836).
ALPHA = 0.836
#: Base cost of a link, and the most its delay can add to it.
BASE, MAX_PENALTY = 30, 60
#: The delay span above zero load over which the penalty grows.
WINDOW_S = 0.110


@dataclass
class RttState(MetricState):
    bandwidth_bps: float
    propagation_s: float
    rtt_min: float
    max_up: float
    max_down: float
    smoothed: float


def smooth(state, sample, ops):
    state.smoothed = ALPHA * state.smoothed + (1.0 - ALPHA) * sample
    return state.smoothed


def penalty(state, delay_s, ops):
    share = ops.clip((delay_s - state.rtt_min) / WINDOW_S, 0.0, 1.0)
    return state.floor + share * MAX_PENALTY


class RttMetric(LinkMetric):
    name = "RTT"
    stages = (smooth, penalty, limit, clip_to_band)
    map_stages = (delay, penalty, clip_to_band)

    def create_state(self, link):
        rtt_min = service_time_s(link.bandwidth_bps) + link.propagation_s
        return RttState(
            last_reported=BASE, floor=float(BASE),
            max_cost=float(BASE + MAX_PENALTY),
            bandwidth_bps=link.bandwidth_bps, propagation_s=link.propagation_s,
            rtt_min=rtt_min, max_up=17.0, max_down=16.0, smoothed=rtt_min,
        )

    def change_threshold(self, link):
        return 13
