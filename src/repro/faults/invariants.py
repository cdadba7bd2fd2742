"""Runtime verification of the paper's metric guarantees.

The revised metric's headline claims are *invariants* of the running
protocol, not just properties of the transform in isolation:

* **cost bounds** -- every advertised cost stays inside its line type's
  absolute band (HN-SPF: ``[min_cost, max_cost]``, the "at most ~3x an
  idle line of the same type" normalization; D-SPF: ``[bias, 255]``);
* **movement limits** -- between consecutive reports the cost moves at
  most ``max_up`` per elapsed measurement period up and ``max_down``
  down ("a little more than a half-hop", Figure 3's Limit_Movement);
* **suppression** -- a change below the significance threshold ("a
  little less than a half-hop") generates no update, except as the
  threshold decays toward the 50-second re-advertisement cap;
* **easing in** -- a restored line re-enters service advertising its
  *maximum* cost and pulls traffic in gradually;
* **loop freedom** -- once the network is quiet, the union of the
  PSNs' next-hop decisions contains no forwarding loop.

:class:`InvariantMonitor` checks all five each routing period while a
simulation runs, enabled via ``ScenarioConfig(check_invariants=True)``.
It only ever *reads* simulation state (advertised-cost history, SPF
trees), so a monitored run stays bit-identical to an unmonitored one.
Violations are recorded as typed ``invariant-violation`` trace events
and collected on :attr:`InvariantMonitor.violations`; in strict mode
(``check_invariants="strict"``) the first violation raises
:class:`InvariantViolationError` out of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.metrics.dspf import DelayMetric
from repro.metrics.hnspf import HopNormalizedMetric
from repro.obs.tracer import INVARIANT_VIOLATION
from repro.psn.node import DOWN_COST
from repro.units import MAX_UPDATE_INTERVAL_S

if TYPE_CHECKING:  # pragma: no cover - avoids a faults <-> sim import cycle
    from repro.sim.network_sim import NetworkSimulation

#: The invariant names a violation can carry.
INVARIANTS = (
    "cost-bounds",
    "rate-limit",
    "suppression",
    "ease-in",
    "routing-loop",
)

#: Float slack on threshold comparisons (costs are integers; the decayed
#: significance threshold is not).
_EPS = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One observed breach of a metric guarantee."""

    t_s: float
    invariant: str
    detail: str
    node: Optional[int] = None
    link: Optional[int] = None

    def to_dict(self) -> Dict:
        out: Dict = {
            "t_s": self.t_s,
            "invariant": self.invariant,
            "detail": self.detail,
        }
        if self.node is not None:
            out["node"] = self.node
        if self.link is not None:
            out["link"] = self.link
        return out

    def __str__(self) -> str:
        where = []
        if self.node is not None:
            where.append(f"node {self.node}")
        if self.link is not None:
            where.append(f"link {self.link}")
        location = f" ({', '.join(where)})" if where else ""
        return (
            f"[t={self.t_s:.3f}s] {self.invariant}{location}: {self.detail}"
        )


class InvariantViolationError(RuntimeError):
    """Raised in strict mode on the first invariant violation."""

    def __init__(self, violation: InvariantViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class InvariantMonitor:
    """Checks the metric invariants once per routing period.

    Parameters
    ----------
    simulation:
        The (built, not yet run) simulation to watch.
    strict:
        Raise :class:`InvariantViolationError` on the first violation
        instead of recording and continuing.

    The per-link expectations (bounds, movement limits, significance
    thresholds, ease-in costs) are snapshotted from the metric at
    construction, so the periodic check never calls back into the
    (shared, stateful) metric object -- and tests can tighten a bound on
    the monitor to prove a violation is caught, without perturbing the
    simulation itself.
    """

    def __init__(
        self, simulation: "NetworkSimulation", strict: bool = False
    ) -> None:
        self.simulation = simulation
        self.strict = strict
        self.interval_s = simulation.config.measurement_interval_s
        self.violations: List[InvariantViolation] = []
        self.checks_run = 0
        self.loop_checks_run = 0
        #: Index into ``stats.cost_history`` of the next unseen entry.
        self._index = 0
        #: link_id -> (t, cost) of its latest advertisement.
        self._last_advert: Dict[int, Tuple[float, int]] = {}
        self._last_loop_key: Optional[tuple] = None

        metric = simulation.metric
        network = simulation.network
        steps = MAX_UPDATE_INTERVAL_S / self.interval_s
        #: link_id -> (lo, hi) absolute cost bounds (metric-aware).
        self._bounds: Dict[int, Tuple[int, int]] = {}
        #: link_id -> (max_up, max_down) per-period movement limits.
        self._movement: Dict[int, Tuple[int, int]] = {}
        #: link_id -> (initial threshold, per-period decay).
        self._threshold: Dict[int, Tuple[float, float]] = {}
        #: link_id -> expected first advertisement after a restore.
        self._initial: Dict[int, int] = {}
        for link in network.links:
            link_id = link.link_id
            self._initial[link_id] = metric.initial_cost(link)
            if isinstance(metric, HopNormalizedMetric):
                params = metric.params_for(link)
                self._bounds[link_id] = (
                    metric.min_cost_for(link), params.max_cost
                )
                if metric.limit_movement:
                    self._movement[link_id] = (params.max_up, params.max_down)
            elif isinstance(metric, DelayMetric):
                params = metric.params_for(link)
                self._bounds[link_id] = (
                    metric.initial_cost(link), params.max_cost
                )
            else:
                continue  # unknown metric: ease-in and loop checks only
            threshold = float(metric.change_threshold(link))
            self._threshold[link_id] = (
                threshold, threshold / max(steps - 1.0, 1.0)
            )
        simulation.sim.timers.every(
            self.interval_s, self.check_now, first_fire_s=self.interval_s
        )

    # ------------------------------------------------------------------
    # The periodic check
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Verify everything advertised since the last check.

        Runs the per-advertisement checks on the new slice of the
        advertised-cost history, then -- only when the network was quiet
        for the whole period (no new updates, no buffered batched-SPF
        repairs) -- the loop-freedom check over the next-hop decisions.
        """
        self.checks_run += 1
        stats = self.simulation.stats
        entries = stats.cost_history[self._index:]
        self._index = len(stats.cost_history)
        for t, link_id, cost in entries:
            self._check_advertisement(t, link_id, cost)
        if entries:
            return  # still converging: transient loops are legitimate
        if any(
            psn._pending_updates for psn in self.simulation.psns.values()
        ):
            return
        key = (self.simulation.network.topology_version, self._index)
        if key != self._last_loop_key:
            self._last_loop_key = key
            self._check_loops()

    def _check_advertisement(self, t: float, link_id: int, cost: int) -> None:
        previous = self._last_advert.get(link_id)
        self._last_advert[link_id] = (t, cost)
        if cost >= DOWN_COST:
            return  # a line declared dead carries no metric cost
        bounds = self._bounds.get(link_id)
        link = self.simulation.network.link(link_id)
        if bounds is not None:
            lo, hi = bounds
            if not lo <= cost <= hi:
                self._record(
                    t, "cost-bounds",
                    f"advertised cost {cost} outside [{lo}, {hi}] for "
                    f"line type {link.line_type.name}",
                    node=link.src, link=link_id,
                )
        if previous is None:
            return  # boot advertisement: nothing to compare against
        t_prev, c_prev = previous
        if c_prev >= DOWN_COST:
            # First advertisement after a restore: the paper's easing-in.
            expected = self._initial.get(link_id)
            if expected is not None and cost != expected:
                self._record(
                    t, "ease-in",
                    f"restored line advertised {cost}, expected the "
                    f"initial (ease-in) cost {expected}",
                    node=link.src, link=link_id,
                )
            return
        delta = cost - c_prev
        # Elapsed measurement periods between the two reports.  Between
        # two interval closes this is exact; after an asynchronous
        # (fault-time) advertisement ceil() rounds the fraction up, which
        # only loosens the bound -- never a false violation.
        periods = max(1, math.ceil((t - t_prev) / self.interval_s - _EPS))
        movement = self._movement.get(link_id)
        if movement is not None:
            max_up, max_down = movement
            if delta > periods * max_up:
                self._record(
                    t, "rate-limit",
                    f"cost rose {delta} in {periods} period(s); limit is "
                    f"{max_up}/period",
                    node=link.src, link=link_id,
                )
            elif -delta > periods * max_down:
                self._record(
                    t, "rate-limit",
                    f"cost fell {-delta} in {periods} period(s); limit is "
                    f"{max_down}/period",
                    node=link.src, link=link_id,
                )
        threshold = self._threshold.get(link_id)
        if threshold is not None:
            initial, decay = threshold
            required = max(initial - (periods - 1) * decay, 0.0)
            if abs(delta) < required - _EPS:
                self._record(
                    t, "suppression",
                    f"update of {delta:+d} went out below the significance "
                    f"threshold ({required:.1f} after {periods} period(s))",
                    node=link.src, link=link_id,
                )

    # ------------------------------------------------------------------
    # Loop freedom
    # ------------------------------------------------------------------
    def _check_loops(self) -> None:
        """No cycle in the union of per-destination next-hop decisions.

        For each destination the next-hop choices of all PSNs form a
        functional graph; converged link-state routing must make it a
        forest into the destination.  Classic three-color walk, one pass
        per destination, pure reads of the SPF trees (the forwarding
        tables resolve exactly these decisions).
        """
        self.loop_checks_run += 1
        simulation = self.simulation
        network = simulation.network
        psns = simulation.psns
        for dst in network.nodes:
            state: Dict[int, int] = {dst: 2}  # 1 = on current walk, 2 = done
            for start in network.nodes:
                if state.get(start):
                    continue
                walk: List[int] = []
                node = start
                while True:
                    mark = state.get(node)
                    if mark == 2:
                        break
                    if mark == 1:
                        self._record(
                            simulation.sim.now, "routing-loop",
                            f"forwarding loop toward node {dst} through "
                            f"node {node}",
                            node=node,
                        )
                        return  # one loop is enough evidence; don't spam
                    state[node] = 1
                    walk.append(node)
                    link_id = psns[node].tree.next_hop_link(dst)
                    if link_id is None:
                        break  # unreachable: a drop, not a loop
                    node = network.link(link_id).dst
                for visited in walk:
                    state[visited] = 2

    # ------------------------------------------------------------------
    def _record(
        self,
        t: float,
        invariant: str,
        detail: str,
        node: Optional[int] = None,
        link: Optional[int] = None,
    ) -> None:
        violation = InvariantViolation(
            t_s=t, invariant=invariant, detail=detail, node=node, link=link
        )
        self.violations.append(violation)
        tracer = self.simulation.tracer
        if tracer.enabled:
            tracer.emit(
                t, INVARIANT_VIOLATION, node=node, link=link,
                data={"invariant": invariant, "detail": detail},
            )
        if self.strict:
            raise InvariantViolationError(violation)

    def summary(self) -> Dict:
        """Counts per invariant plus the check totals (JSON-ready)."""
        per_invariant = {name: 0 for name in INVARIANTS}
        for violation in self.violations:
            per_invariant[violation.invariant] += 1
        return {
            "checks_run": self.checks_run,
            "loop_checks_run": self.loop_checks_run,
            "violations": len(self.violations),
            "per_invariant": per_invariant,
        }
