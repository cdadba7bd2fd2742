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

Costs are integers in routing units (the 8-bit update field); *hops* are
costs divided by the ambient idle cost of a reference line.

Only the array API (``cost_at_utilization_array``, ``create_vector_state``,
``measured_costs`` and the ``*_array`` queueing transforms) needs numpy, so
the metric modules import it inside those functions: a packet-level run
never enters them and does not pay for the import.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.topology.graph import Link

if TYPE_CHECKING:  # pragma: no cover - see the module docstring on numpy
    import numpy as np


class LinkMetric(abc.ABC):
    """Strategy object mapping measured link delay to reported cost."""

    #: Human-readable name used in reports ("D-SPF", "HN-SPF", "Min-Hop").
    name: str = "metric"

    # ------------------------------------------------------------------
    # Operational view (driven by the PSN once per measurement interval)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def create_state(self, link: Link) -> Any:
        """Create the per-link mutable state (history) for ``link``."""

    @abc.abstractmethod
    def initial_cost(self, link: Link) -> int:
        """Cost advertised when the link first comes up.

        HN-SPF eases new links in at their *maximum* cost; D-SPF starts at
        the bias (an idle line).
        """

    @abc.abstractmethod
    def measured_cost(self, link: Link, state: Any, delay_s: float) -> int:
        """Consume one interval's average measured delay; return the cost.

        Mutates ``state``.  The returned cost already includes any
        movement limiting and clipping the metric performs.
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
    def idle_cost(self, link: Link) -> float:
        """Cost of an idle link -- the normalizer used by Figure 4."""

    def cost_at_utilization_array(
        self, link: Link, utilizations: np.ndarray
    ) -> np.ndarray:
        """Vector form of :meth:`cost_at_utilization`.

        The analysis package sweeps thousands of utilizations per call
        through this.  The base implementation loops; the built-in
        metrics override it with closed-form numpy expressions that are
        element-for-element identical to the scalar method.
        """
        import numpy as np

        u = np.asarray(utilizations, dtype=float)
        flat = [self.cost_at_utilization(link, float(x)) for x in u.ravel()]
        return np.array(flat, dtype=float).reshape(u.shape)

    # ------------------------------------------------------------------
    # Vectorized operational view (used by the fluid model)
    # ------------------------------------------------------------------
    def create_vector_state(self, links: Sequence[Link]) -> Optional[Any]:
        """Per-link state for the vectorized measurement pipeline.

        Returns an opaque struct-of-arrays state covering ``links``, or
        ``None`` when the metric has no vectorized pipeline (callers
        then fall back to per-link :meth:`create_state` /
        :meth:`measured_cost`).  A metric that implements this MUST make
        :meth:`measured_costs` reproduce :meth:`measured_cost`
        bit-identically per element.
        """
        return None

    def measured_costs(
        self, vector_state: Any, delays_s: np.ndarray
    ) -> np.ndarray:
        """Consume one interval's delays for every link at once.

        Mutates ``vector_state`` (the filter histories) and returns the
        reported costs as a float array of integral values.
        """
        raise NotImplementedError(
            f"{self.__class__.__name__} has no vectorized pipeline"
        )

    # ------------------------------------------------------------------
    def hops(self, link: Link, cost_units: float, ambient_units: float) -> float:
        """Express a cost in hops relative to an ambient per-hop cost."""
        if ambient_units <= 0:
            raise ValueError(f"ambient must be positive, got {ambient_units}")
        return cost_units / ambient_units

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.name}>"
