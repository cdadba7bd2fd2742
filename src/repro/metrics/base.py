"""The link metric interface.

A *metric* turns per-link delay measurements into the cost carried in
routing updates.  The route computation (SPF) is metric-agnostic; swapping
the metric is exactly the July 1987 change the paper describes.

Two views of every metric:

* the **operational** view used by the PSN simulation: per-link mutable
  state updated once per measurement interval
  (:meth:`LinkMetric.create_state` / :meth:`LinkMetric.measured_cost`),
* the **equilibrium** view used by the analysis package: a stateless map
  from steady utilization to cost
  (:meth:`LinkMetric.cost_at_utilization`), Figure 4/5's "Metric map".

Costs are integers in routing units (the 8-bit update field).

Each metric writes its transform once, as arithmetic plus a clip to the
link's cost band (:meth:`LinkMetric.cost_bounds`) and a round, over one
state class that holds the link's constants next to its history.  The
state's fields are plain floats for one link (:meth:`create_state`) and
numpy arrays for many (:meth:`create_vector_state`); the scalar path
runs the transform with :func:`clip` and ``round``, the array path with
:func:`clip_array` and ``np.rint``.  Only the array path needs numpy, so
the metric modules import it inside those functions: a packet-level run
never enters them and does not pay for the import.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple

from repro.topology.graph import Link

if TYPE_CHECKING:  # pragma: no cover - see the module docstring on numpy
    import numpy as np


def clip(x: float, lo: float, hi: float) -> float:
    """``x`` held to ``[lo, hi]``: the scalar transforms' clip."""
    return min(max(x, lo), hi)


def clip_array(x: np.ndarray, lo: Any, hi: Any) -> np.ndarray:
    """Element-wise :func:`clip`: the array transforms' clip."""
    import numpy as np

    return np.minimum(np.maximum(x, lo), hi)


@dataclass
class MetricState:
    """The history every metric keeps: the link's last reported cost.

    Metrics with constants or a longer history extend this class; min-hop
    uses it as is.
    """

    last_reported: int


class LinkMetric(abc.ABC):
    """Strategy object mapping measured link delay to reported cost."""

    #: Human-readable name used in reports ("D-SPF", "HN-SPF", "Min-Hop").
    name: str = "metric"

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

    @abc.abstractmethod
    def initial_cost(self, link: Link) -> int:
        """Cost advertised when the link first comes up.

        HN-SPF eases new links in at their *maximum* cost; D-SPF starts at
        the bias (an idle line).
        """

    @abc.abstractmethod
    def cost_bounds(self, link: Link) -> Tuple[int, int]:
        """The legal advertised-cost band ``(lo, hi)`` of ``link``.

        Every cost the metric reports lies in it; the invariant monitor
        and the defense layer's range screen read it from here.
        """

    def movement_limits(self, link: Link) -> Optional[Tuple[int, int]]:
        """Per-period ``(max_up, max_down)`` cost movement, or ``None``."""
        return None

    @abc.abstractmethod
    def measured_cost(self, link: Link, state: Any, delay_s: float) -> int:
        """Consume one interval's average measured delay; return the cost.

        Mutates ``state``.  The returned cost already includes any
        movement limiting and clipping the metric performs.
        """

    @abc.abstractmethod
    def measured_costs(
        self, vector_state: Any, delays_s: np.ndarray
    ) -> np.ndarray:
        """:meth:`measured_cost` for every link of a vector state at once.

        Returns the reported costs as a float array of integral values.
        """

    @abc.abstractmethod
    def change_threshold(self, link: Link) -> int:
        """Minimum |cost change| that justifies a routing update.

        The PSN's significance criterion starts here and decays to zero so
        an update always goes out within 50 seconds.
        """

    # ------------------------------------------------------------------
    # Equilibrium view (used by the analysis/ package)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cost_at_utilization(self, link: Link, utilization: float) -> float:
        """Steady-state cost of ``link`` at a constant utilization.

        No averaging or movement limiting: this is the metric *map* of
        Figures 4 and 5.
        """

    @abc.abstractmethod
    def cost_at_utilization_array(
        self, link: Link, utilizations: np.ndarray
    ) -> np.ndarray:
        """:meth:`cost_at_utilization` over an array of utilizations."""

    @abc.abstractmethod
    def idle_cost(self, link: Link) -> float:
        """Cost of an idle link -- the normalizer used by Figure 4."""

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.name}>"
