"""Control-plane defenses against Byzantine routing updates.

The post-1980 ARPANET hardening, as a fixed screen in front of
:meth:`~repro.routing.flooding.FloodingState.accept`:

1. **Sanity validation** -- a received update with any entry whose
   cost lies outside its link's absolute metric band (the paper's
   section-4 cost bounds, snapshotted per link exactly the way the
   invariant monitor does), or whose sequence number jumps more than
   :data:`SEQ_WINDOW` past the highest sequence already on record for
   its origin, is rejected before it can touch the database.  The 1980
   corrupted sequence numbers die here.
2. **Strikes + quarantine** -- every rejection is a strike against the
   *delivering neighbour*; :data:`QUARANTINE_SCORE` strikes quarantine
   it (all its updates rejected) for :data:`QUARANTINE_S`.  A token
   bucket additionally rate-limits how fast a neighbour may *originate*
   updates, which is the only defense that bites a babbling node whose
   updates are individually well-formed.
3. **Purge-and-reflood** -- a pass every :data:`PURGE_INTERVAL_S`
   evicts database entries (one per origin) from which nothing has been
   *heard* -- accepted or rejected -- for :data:`PURGE_AGE_S`.  Every
   node originates an update at least once per 50 seconds (each link's
   significance threshold decays to zero), so an origin that stays
   reachable is never purged, while one cut off long enough (a
   partition) is forgotten and re-learned through the absent-origin
   door when it returns, instead of tripping the sequence screen.
   Aging from the last update *heard* rather than accepted keeps a
   forger's origin on record while its forgeries are being rejected:
   the sequence screen stays armed instead of reopening the door.

Each part is needed by some run that goes wrong without it: the
table is ``tests/faults/test_screen_need.py``, where a part is removed
by patching its constant.

All state lives per node in :class:`NodeDefense`; the immutable
per-simulation part (per-link cost bounds) is one shared
:class:`DefensePolicy`.  The layer is pure protocol logic -- methods
take ``now`` explicitly and no simulator types appear -- so it unit
tests without a DES, like :class:`~repro.routing.flooding.FloodingState`.

Enabled via ``ScenarioConfig(defenses=True)``.  With no misbehaviour in
the run, screening accepts everything and the purge evicts nothing -- a
defended fault-free run is bit-identical to a bare run (pinned by
``tests/faults/test_collapse.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.units import DOWN_COST

#: Reasons :meth:`NodeDefense.screen` can reject an update with.
REJECT_REASONS = (
    "quarantined",
    "rate-limit",
    "cost-range",
    "seq-implausible",
)

#: A received sequence may exceed the highest on record by at most this
#: much (honest nodes step by 1; the 1980 bit-flips jump by >= 256).
SEQ_WINDOW = 64
#: Token-bucket origination rate per neighbour (updates per second).
#: The honest cadence is at most one update per 10-second measurement
#: interval plus one per local line going down or up.
RATE_LIMIT_PER_S = 2.0
#: Token-bucket burst (covers the boot flood and a whole-node
#: fail/restore re-advertisement).
RATE_BURST = 24.0
#: Strikes (rejections) that quarantine a neighbour.
QUARANTINE_SCORE = 3
#: Length of every quarantine.
QUARANTINE_S = 30.0
#: Entries not heard from within this age are purged; it exceeds the
#: 50-second re-advertisement cap.
PURGE_AGE_S = 120.0
#: How often the purge pass runs.
PURGE_INTERVAL_S = 30.0


class DefensePolicy:
    """The shared, immutable half of the defense layer.

    Holds per-link absolute cost bounds snapshotted from the metric at
    build time (the same computation the invariant monitor uses), so
    per-update screening never calls back into the shared, stateful
    metric object.
    """

    def __init__(self, network, metric) -> None:
        #: link_id -> (lo, hi) legal advertised-cost band, the metric's
        #: :meth:`~repro.metrics.base.LinkMetric.cost_bounds`.
        self.bounds: Dict[int, Tuple[int, int]] = {
            link.link_id: metric.cost_bounds(link) for link in network.links
        }


@dataclass
class DefenseStats:
    """Counters for one node's defense activity."""

    rejected_quarantine: int = 0
    rejected_rate: int = 0
    rejected_cost: int = 0
    rejected_seq: int = 0
    quarantines: int = 0
    rehabilitations: int = 0
    purge_passes: int = 0
    purged_entries: int = 0

    @property
    def rejected(self) -> int:
        """Total updates rejected by any screen."""
        return (
            self.rejected_quarantine + self.rejected_rate
            + self.rejected_cost + self.rejected_seq
        )


@dataclass
class _NeighborState:
    """Mutable per-neighbour screening state."""

    tokens: float
    last_refill_s: float
    strikes: int = 0
    quarantined_until_s: Optional[float] = None


class NodeDefense:
    """One node's defense state: screens updates, quarantines, purges.

    Parameters
    ----------
    policy:
        The simulation-wide :class:`DefensePolicy`.
    node_id:
        The owning PSN.
    flooding:
        The owner's :class:`~repro.routing.flooding.FloodingState`;
        the sequence-plausibility screen reads its database and the
        purge pass evicts from it.

    The owning update protocol sets :attr:`on_quarantine` to emit trace
    events; the callback receives ``(neighbor_id, until_s)``.
    """

    def __init__(self, policy: DefensePolicy, node_id: int, flooding) -> None:
        self.policy = policy
        self.node_id = node_id
        self.flooding = flooding
        self.stats = DefenseStats()
        self._neighbors: Dict[int, _NeighborState] = {}
        #: origin -> last time an update from it was heard (feeds the
        #: age-based purge).
        self._last_heard: Dict[int, float] = {}
        self.on_quarantine: Optional[Callable[[int, float], None]] = None

    # ------------------------------------------------------------------
    # Screening
    # ------------------------------------------------------------------
    def screen(self, update, from_node: int, now: float) -> Optional[str]:
        """Vet one received update; returns a rejection reason or ``None``.

        ``from_node`` is the delivering neighbour (who gets a strike for
        a rejection), not necessarily the update's origin.
        """
        self._last_heard[update.origin] = now
        state = self._neighbors.get(from_node)
        if state is None:
            state = self._neighbors[from_node] = _NeighborState(
                tokens=RATE_BURST, last_refill_s=now,
            )
        if state.quarantined_until_s is not None:
            if now < state.quarantined_until_s:
                self.stats.rejected_quarantine += 1
                return "quarantined"
            state.quarantined_until_s = None
            self.stats.rehabilitations += 1
        if update.origin == from_node:
            # Originations spend the neighbour's token bucket; forwards
            # of third-party updates do not (a flood's fan-in is the
            # protocol's doing, not the neighbour's).
            elapsed = now - state.last_refill_s
            if elapsed > 0:
                state.tokens = min(
                    RATE_BURST, state.tokens + elapsed * RATE_LIMIT_PER_S
                )
                state.last_refill_s = now
            if state.tokens < 1.0:
                self.stats.rejected_rate += 1
                self._strike(state, from_node, now)
                return "rate-limit"
            state.tokens -= 1.0
        bounds = self.policy.bounds
        for link_id, cost in update.costs:
            if cost >= DOWN_COST:  # "line dead" is always legal
                continue
            lo, hi = bounds[link_id]
            if not lo <= cost <= hi:
                self.stats.rejected_cost += 1
                self._strike(state, from_node, now)
                return "cost-range"
        highest = self.flooding._highest_seen[update.origin]
        if highest and update.sequence > highest + SEQ_WINDOW:
            # A known origin may only advance plausibly.  An absent (or
            # purged) origin, 0 on record, accepts any sequence -- the
            # door a partitioned origin re-enters by, and a fresh node
            # bootstraps through.
            self.stats.rejected_seq += 1
            self._strike(state, from_node, now)
            return "seq-implausible"
        return None

    # ------------------------------------------------------------------
    # Purge-and-reflood
    # ------------------------------------------------------------------
    def purge(self, now: float) -> int:
        """Evict database entries not heard from within ``PURGE_AGE_S``.

        Returns the number of entries evicted.  The own origin is never
        purged (the owner *is* the authority on its own links).  The
        matching re-learn happens by itself: every reachable honest node
        originates at least once per 50 s, and the sequence screen
        accepts any sequence from an absent origin.
        """
        self.stats.purge_passes += 1
        horizon = now - PURGE_AGE_S
        highest = self.flooding._highest_seen
        stale = [
            origin for origin, last in self._last_heard.items()
            if last <= horizon and origin != self.node_id
        ]
        purged = 0
        for origin in stale:
            del self._last_heard[origin]
            if highest[origin]:
                highest[origin] = 0  # back through the absent-origin door
                purged += 1
        self.stats.purged_entries += purged
        return purged

    def _strike(self, state: _NeighborState, node_id: int, now: float) -> None:
        state.strikes += 1
        if state.strikes < QUARANTINE_SCORE:
            return
        state.strikes = 0
        state.quarantined_until_s = now + QUARANTINE_S
        self.stats.quarantines += 1
        if self.on_quarantine is not None:
            self.on_quarantine(node_id, state.quarantined_until_s)
