"""Control-plane defenses against Byzantine routing updates.

The post-1980 ARPANET hardening, as a layered screen in front of
:meth:`~repro.routing.flooding.FloodingState.accept`:

1. **Sanity validation** -- a received update with any entry whose
   cost lies outside its link's absolute metric band (the paper's
   section-4 cost bounds, snapshotted per link exactly the way the
   invariant monitor does), or whose sequence number jumps implausibly
   far past the highest sequence already on record for its origin, is
   rejected before it can touch the database.  The 1980 corrupted
   sequence numbers die here.
2. **Misbehaviour scoring + quarantine** -- every rejection charges
   the *delivering neighbour* one point on a decaying score; past a
   threshold the neighbour is quarantined (all its updates rejected)
   for a rehabilitation period that doubles on each relapse, up to a
   cap.  A token bucket additionally rate-limits how fast a neighbour
   may *originate* updates, which is the only defense that bites a
   babbling node whose updates are individually well-formed.
3. **Purge-and-reflood self-stabilization** -- a periodic pass evicts
   database entries (one per origin) not refreshed within
   ``purge_age_s``.  Because every node originates an update at least
   once per 50 seconds (each link's significance threshold decays to
   zero), an evicted *honest* entry is re-learned within one cap
   interval, while a poisoned entry -- whose forged sequence number was
   blocking the honest updates -- stays gone.  This is the post-1980
   fix: the network heals even if garbage got in.

All state lives per node in :class:`NodeDefense`; the immutable
per-simulation part (config + per-link cost bounds) is one shared
:class:`DefensePolicy`.  The layer is pure protocol logic -- methods
take ``now`` explicitly and no simulator types appear -- so it unit
tests without a DES, like :class:`~repro.routing.flooding.FloodingState`.

Enabled via ``ScenarioConfig(defenses=True)`` (or a custom
:class:`DefenseConfig`).  With no misbehaviour in the run, screening
accepts everything and the purge only evicts entries that the 50-second
re-advertisement cap immediately repopulates *with the next sequence
number the node would have used anyway* -- a defended fault-free run is
bit-identical to a bare run (pinned by ``tests/faults/test_collapse.py``).
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

@dataclass(frozen=True)
class DefenseConfig:
    """Knobs of the defense layer (defaults sized for the paper's nets).

    The defaults are deliberately conservative: wide enough that no
    honest behaviour in any shipped scenario trips them (the no-fault
    bit-identity test depends on it), tight enough that the 1980-style
    sequence bit-flips -- which jump by at least 256 -- are rejected on
    arrival.
    """

    #: A received sequence may exceed the highest on record by at most
    #: this much; bigger jumps are implausible (honest nodes step by 1,
    #: and even a reboot re-floods from its counter, not past it).
    seq_window: int = 64
    #: Token-bucket origination rate per neighbour: sustained updates
    #: per second accepted from a neighbour that *it* originated.  The
    #: honest cadence is at most one update per 10-second measurement
    #: interval plus one per local line going down or up; 2/s leaves an
    #: order of magnitude of headroom for fault-time bursts.
    rate_limit_per_s: float = 2.0
    #: Token-bucket burst: instantaneous origination credit (covers the
    #: boot flood and a whole-node fail/restore re-advertisement).
    rate_burst: float = 24.0
    #: Misbehaviour points (one per rejection) before quarantine.
    quarantine_score: float = 3.0
    #: Score decay per second (forgives isolated rejections).
    score_decay_per_s: float = 0.05
    #: First quarantine length; doubles on each relapse.
    quarantine_s: float = 30.0
    #: Rehabilitation backoff cap.
    max_quarantine_s: float = 480.0
    #: Database entries not refreshed within this age are purged.  Must
    #: exceed the 50-second re-advertisement cap so honest entries are
    #: always refreshed before they age out.
    purge_age_s: float = 120.0
    #: How often the purge pass runs (0 disables purging).
    purge_interval_s: float = 30.0

    def __post_init__(self) -> None:
        if self.seq_window < 1:
            raise ValueError(f"seq_window must be >= 1: {self.seq_window}")
        if self.rate_limit_per_s <= 0 or self.rate_burst < 1:
            raise ValueError(
                f"rate limit needs positive rate and burst >= 1: "
                f"{self.rate_limit_per_s}, {self.rate_burst}"
            )
        if self.quarantine_score <= 0:
            raise ValueError(
                f"quarantine_score must be positive: {self.quarantine_score}"
            )
        if self.quarantine_s <= 0 or self.max_quarantine_s < self.quarantine_s:
            raise ValueError(
                f"quarantine window must be positive and capped above "
                f"itself: {self.quarantine_s}, {self.max_quarantine_s}"
            )
        if self.purge_interval_s < 0:
            raise ValueError(
                f"purge_interval_s must be >= 0: {self.purge_interval_s}"
            )
        if self.purge_interval_s and self.purge_age_s <= self.purge_interval_s:
            raise ValueError(
                f"purge_age_s ({self.purge_age_s}) must exceed the purge "
                f"interval ({self.purge_interval_s})"
            )


class DefensePolicy:
    """The shared, immutable half of the defense layer.

    Holds the config plus per-link absolute cost bounds snapshotted
    from the metric at build time (the same computation the invariant
    monitor uses), so per-update screening never calls back into the
    shared, stateful metric object.
    """

    def __init__(self, network, metric, config: DefenseConfig) -> None:
        self.config = config
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
    score: float = 0.0
    last_decay_s: float = 0.0
    quarantined_until_s: Optional[float] = None
    quarantine_count: int = 0


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
        #: origin -> last time an update from it was accepted (feeds
        #: the age-based purge).
        self._last_accept: Dict[int, float] = {}
        self.on_quarantine: Optional[Callable[[int, float], None]] = None

    # ------------------------------------------------------------------
    # Screening
    # ------------------------------------------------------------------
    def screen(self, update, from_node: int, now: float) -> Optional[str]:
        """Vet one received update; returns a rejection reason or ``None``.

        ``from_node`` is the delivering neighbour (who gets charged for
        rejections), not necessarily the update's origin.
        """
        state = self._neighbor(from_node, now)
        if state.quarantined_until_s is not None:
            if now < state.quarantined_until_s:
                self.stats.rejected_quarantine += 1
                return "quarantined"
            # Rehabilitation: the sentence is served.  The relapse
            # counter survives, so a repeat offender's next quarantine
            # doubles -- rate-limited rehabilitation.
            state.quarantined_until_s = None
            state.score = 0.0
            state.last_decay_s = now
            self.stats.rehabilitations += 1
        if update.origin == from_node:
            # Originations spend the neighbour's token bucket; forwards
            # of third-party updates do not (a flood's fan-in is the
            # protocol's doing, not the neighbour's).
            config = self.policy.config
            elapsed = now - state.last_refill_s
            if elapsed > 0:
                state.tokens = min(
                    config.rate_burst,
                    state.tokens + elapsed * config.rate_limit_per_s,
                )
                state.last_refill_s = now
            if state.tokens < 1.0:
                self.stats.rejected_rate += 1
                self._penalize(state, from_node, now)
                return "rate-limit"
            state.tokens -= 1.0
        bounds = self.policy.bounds
        for link_id, cost in update.costs:
            if cost >= DOWN_COST:  # "line dead" is always legal
                continue
            lo, hi = bounds[link_id]
            if not lo <= cost <= hi:
                self.stats.rejected_cost += 1
                self._penalize(state, from_node, now)
                return "cost-range"
        highest = self.flooding._highest_seen.get(update.origin)
        if highest is not None and \
                update.sequence > highest + self.policy.config.seq_window:
            # A known origin may only advance plausibly.  An absent (or
            # purged) origin accepts any sequence -- that open door is what
            # lets purge-and-reflood re-learn after a poisoning, and a
            # fresh node bootstrap from nothing.
            self.stats.rejected_seq += 1
            self._penalize(state, from_node, now)
            return "seq-implausible"
        return None

    def note_accepted(self, update, now: float) -> None:
        """Record a database refresh (called after ``accept`` succeeds)."""
        self._last_accept[update.origin] = now

    # ------------------------------------------------------------------
    # Purge-and-reflood
    # ------------------------------------------------------------------
    def purge(self, now: float) -> int:
        """Evict database entries not refreshed within ``purge_age_s``.

        Returns the number of entries evicted.  The own origin is never
        purged (the owner *is* the authority on its own links).  The
        matching re-learn happens by itself: every honest node
        originates at least once per 50 s, and the sequence screen
        accepts any sequence from an absent origin.
        """
        self.stats.purge_passes += 1
        horizon = now - self.policy.config.purge_age_s
        highest = self.flooding._highest_seen
        stale = [
            origin for origin, last in self._last_accept.items()
            if last <= horizon and origin != self.node_id
        ]
        purged = 0
        for origin in stale:
            del self._last_accept[origin]
            if highest.pop(origin, None) is not None:
                purged += 1
        self.stats.purged_entries += purged
        return purged

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _neighbor(self, node_id: int, now: float) -> _NeighborState:
        state = self._neighbors.get(node_id)
        if state is None:
            config = self.policy.config
            state = self._neighbors[node_id] = _NeighborState(
                tokens=config.rate_burst,
                last_refill_s=now,
                last_decay_s=now,
            )
        return state

    def _penalize(
        self, state: _NeighborState, node_id: int, now: float
    ) -> None:
        config = self.policy.config
        elapsed = now - state.last_decay_s
        if elapsed > 0:
            state.score = max(
                0.0, state.score - elapsed * config.score_decay_per_s
            )
        state.last_decay_s = now
        state.score += 1.0
        if state.score < config.quarantine_score:
            return
        length = min(
            config.quarantine_s * (2 ** state.quarantine_count),
            config.max_quarantine_s,
        )
        state.quarantined_until_s = now + length
        state.quarantine_count += 1
        state.score = 0.0
        self.stats.quarantines += 1
        if self.on_quarantine is not None:
            self.on_quarantine(node_id, state.quarantined_until_s)

    def quarantined(self, node_id: int, now: float) -> bool:
        """Whether ``node_id`` is currently quarantined (pure read)."""
        state = self._neighbors.get(node_id)
        return (
            state is not None
            and state.quarantined_until_s is not None
            and now < state.quarantined_until_s
        )
