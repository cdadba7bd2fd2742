"""The link metric interface, and the stages every metric is built from.

A *metric* turns per-link delay measurements into the cost carried in
routing updates.  The route computation (SPF) is metric-agnostic; swapping
the metric is exactly the July 1987 change the paper describes.

A metric is two chains of *stages*, each ``stage(state, x, ops) -> x``,
after PAPER.md section 1's pipeline:

1. :func:`utilization` -- measured delay to utilization (M/M/1);
2. :func:`average` -- ``.5 * Sample + .5 * Last_Average``;
3. :func:`linear` -- the per-line-type slope and offset;
4. :func:`limit` -- the per-period movement limits;
5. :func:`clip_to_band` -- the link's absolute cost band;
6. suppression of small changes, which stays with the PSN's
   significance criterion: it compares against the last *advertised*
   cost, which only the PSN holds;
7. :func:`ease_in` -- a new link starts at the band's top.

D-SPF adds :func:`quantize` (delay to routing units), and its
equilibrium view :func:`delay` (the M/M/1 delay at a utilization).

:class:`LinkMetric` runs both views of every metric: the **operational**
``stages``, once per measurement interval and then rounded to routing
units (:meth:`~LinkMetric.measured_cost`), and the **equilibrium**
``map_stages``, from a steady utilization -- Figure 4/5's "Metric map"
(:meth:`~LinkMetric.cost_at_utilization`).  An ablation is a chain with
one stage removed.

The state holds the link's constants next to its history, as plain
floats for one link (:meth:`~LinkMetric.create_state`) or numpy arrays
for many (:meth:`~LinkMetric.create_vector_state`); the same chain runs
on either, with :data:`SCALAR_OPS` or :func:`array_ops`.  Only the
array path needs numpy, and it imports it on first use: a packet-level
run never enters it and does not pay for the import.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence, Tuple

from repro.metrics.queueing import (
    delay_to_utilization,
    delay_to_utilization_array,
    utilization_to_delay_s,
    utilization_to_delay_s_array,
)
from repro.topology.graph import Link

if TYPE_CHECKING:  # pragma: no cover - see the module docstring on numpy
    import numpy as np


def clip(x: float, lo: float, hi: float) -> float:
    """``x`` held to ``[lo, hi]``: the scalar chains' clip."""
    return min(max(x, lo), hi)


class Ops(NamedTuple):
    """What a stage may do to ``x``, for one link or for an array of them.

    ``to_utilization`` and ``to_delay`` are the M/M/1 transforms, called
    as ``(x, bandwidth_bps, propagation_s)``.
    """

    clip: Callable
    rint: Callable
    to_utilization: Callable
    to_delay: Callable


SCALAR_OPS = Ops(clip, round, delay_to_utilization, utilization_to_delay_s)


@lru_cache(maxsize=None)
def array_ops() -> Ops:
    """The numpy :class:`Ops`, built (and numpy imported) on first use."""
    import numpy as np

    return Ops(
        lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
        np.rint,
        delay_to_utilization_array,
        utilization_to_delay_s_array,
    )


@dataclass
class MetricState:
    """What every metric keeps: its last report and its cost band.

    Metrics with more constants or a longer history extend this class;
    min-hop uses it as is.
    """

    last_reported: int
    floor: float
    max_cost: float


Stage = Callable[[Any, Any, Ops], Any]


# ----------------------------------------------------------------------
# The stages, in PAPER.md section 1's order
# ----------------------------------------------------------------------
def utilization(state, delay_s, ops: Ops):
    """Step 1: the M/M/1 utilization behind a measured delay."""
    return ops.to_utilization(delay_s, state.bandwidth_bps, state.propagation_s)


def average(state, sample, ops: Ops):
    """Step 2: ``.5 * Sample + .5 * Last_Average``, stored per link."""
    state.last_average = 0.5 * sample + 0.5 * state.last_average
    return state.last_average


def linear(state, utilization, ops: Ops):
    """Step 3: ``Slope[Line_Type] * utilization + Offset[Line_Type]``."""
    return state.slope * utilization + state.offset


def limit(state, cost, ops: Ops):
    """Step 4: ``Limit_Movement`` against the last reported cost."""
    last = state.last_reported
    return ops.clip(cost, last - state.max_down, last + state.max_up)


def clip_to_band(state, cost, ops: Ops):
    """Step 5: ``Clip`` to the link's cost band."""
    return ops.clip(cost, state.floor, state.max_cost)


def ease_in(state, cost, ops: Ops):
    """Step 7: a link that comes up advertises the band's *top*.

    The stage acts once, in the state: :meth:`LinkMetric.create_state`
    starts ``last_reported`` there when the chain holds it, and the
    bottom otherwise.  Per report it passes the cost through.
    """
    return cost


def quantize(state, delay_s, ops: Ops):
    """D-SPF: a delay in routing units."""
    return delay_s * 1000.0 / state.ms_per_unit


def delay(state, utilization, ops: Ops):
    """D-SPF's map: the M/M/1 delay of a constant utilization."""
    return ops.to_delay(utilization, state.bandwidth_bps, state.propagation_s)


def run(stages: Sequence[Stage], state, x, ops: Ops):
    """``x`` through every stage in turn."""
    for stage in stages:
        x = stage(state, x, ops)
    return x


class LinkMetric(abc.ABC):
    """Strategy object mapping measured link delay to reported cost."""

    #: Human-readable name used in reports ("D-SPF", "HN-SPF", "Min-Hop").
    name: str = "metric"

    #: The operational chain, from measured delay to cost; the runner
    #: rounds its result into ``last_reported``.
    stages: Tuple[Stage, ...]
    #: The equilibrium chain, from steady utilization to cost.
    map_stages: Tuple[Stage, ...]

    # ------------------------------------------------------------------
    # Operational view (driven by the PSN once per measurement interval)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def create_state(self, link: Link) -> MetricState:
        """The state (constants and history) of ``link``, as plain numbers."""

    def create_vector_state(self, links: Sequence[Link]) -> MetricState:
        """One state covering ``links``: each field an array, one slot per link.

        :meth:`measured_costs` on it reproduces :meth:`measured_cost` on
        the per-link states bit-identically per element.
        """
        import numpy as np

        states = [self.create_state(link) for link in links]
        return type(states[0])(**{
            f.name: np.array([getattr(s, f.name) for s in states], dtype=float)
            for f in fields(states[0])
        })

    def initial_cost(self, link: Link) -> int:
        """Cost advertised when the link first comes up.

        HN-SPF eases new links in at their *maximum* cost; D-SPF starts at
        the bias (an idle line).
        """
        return self.create_state(link).last_reported

    def cost_bounds(self, link: Link) -> Tuple[int, int]:
        """The legal advertised-cost band ``(lo, hi)`` of ``link``.

        Every cost the metric reports lies in it; the invariant monitor
        and the defense layer's range screen read it from here.
        """
        state = self.create_state(link)
        return int(state.floor), int(state.max_cost)

    def movement_limits(self, link: Link) -> Optional[Tuple[int, int]]:
        """Per-period ``(max_up, max_down)`` cost movement, or ``None``
        when the chain does not :func:`limit` it."""
        if limit not in self.stages:
            return None
        state = self.create_state(link)
        return int(state.max_up), int(state.max_down)

    def measured_cost(self, link: Link, state: Any, delay_s: float) -> int:
        """Consume one interval's average measured delay; return the cost.

        Mutates ``state``.  The returned cost already includes any
        movement limiting and clipping the metric performs.
        """
        state.last_reported = round(run(self.stages, state, delay_s, SCALAR_OPS))
        return state.last_reported

    def measured_costs(self, vector_state: Any, delays_s: np.ndarray) -> np.ndarray:
        """:meth:`measured_cost` for every link of a vector state at once.

        Returns the reported costs as a float array of integral values.
        """
        import numpy as np

        ops = array_ops()
        vector_state.last_reported = ops.rint(run(
            self.stages, vector_state, np.asarray(delays_s, dtype=float), ops
        ))
        return vector_state.last_reported

    @abc.abstractmethod
    def change_threshold(self, link: Link) -> int:
        """Minimum |cost change| that justifies a routing update.

        The PSN's significance criterion starts here and decays to zero so
        an update always goes out within 50 seconds.
        """

    # Routing generation: link-state SPF honours every run setting.
    def check_config(self, config) -> None:
        """Refuse a ScenarioConfig setting this routing cannot honour."""

    def start_routing(self, simulation) -> None:
        """Start SPF in every PSN: one idle cost table, copied per PSN,
        one shared SPF cache and, with ``defenses`` set, one policy."""
        from repro.routing.defense import DefensePolicy
        from repro.routing.spf import CostTable
        from repro.routing.spf_cache import SpfCache

        network, config = simulation.network, simulation.config
        simulation.spf_cache = SpfCache(network)
        if config.defenses:
            simulation.defense_policy = DefensePolicy(network, self)
        idle_costs = CostTable.from_metric(network, self)
        for psn in simulation.psns.values():
            psn.start_link_state(
                idle_costs.copy(), simulation.spf_cache, simulation.streams,
                config.multipath, simulation.defense_policy, simulation.tracer,
            )

    # ------------------------------------------------------------------
    # Equilibrium view (used by the analysis/ package)
    # ------------------------------------------------------------------
    def cost_at_utilization(self, link: Link, utilization: float) -> float:
        """Steady-state cost of ``link`` at a constant utilization.

        No averaging or movement limiting: this is the metric *map* of
        Figures 4 and 5.
        """
        return run(self.map_stages, self.create_state(link), utilization, SCALAR_OPS)

    def cost_at_utilization_array(
        self, link: Link, utilizations: np.ndarray
    ) -> np.ndarray:
        """:meth:`cost_at_utilization` over an array of utilizations."""
        import numpy as np

        return run(
            self.map_stages, self.create_state(link),
            np.asarray(utilizations, dtype=float), array_ops(),
        )

    def idle_cost(self, link: Link) -> float:
        """Cost of an idle link -- the normalizer used by Figure 4."""
        return self.create_state(link).floor

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.name}>"
