"""Equal-cost multipath routing (extension).

Section 4.5 of the paper: *"To accomplish load-sharing when network
traffic is dominated by several large flows would require a multi-path
routing algorithm (e.g., see [6]).  In general, single path routing
algorithms are fairly ineffective in dealing with such traffic
patterns."*  The authors cite BBN Report 6363 (Multi-Path Routing) but
leave it unbuilt; this module implements the natural SPF-compatible
variant -- equal-cost multipath (ECMP) -- so the claim can be tested.

A :class:`MultipathRouter` computes, per destination, *every* outgoing
link that lies on some shortest path and spreads traffic across them:

* ``mode="flow"``  -- deterministic hash of (src, dst): one flow, one
  path (preserves packet ordering; shares only across flows);
* ``mode="packet"`` -- round-robin per destination: maximal sharing, at
  the price of reordering (the mode a few large flows need).

With a consistent network-wide cost view, equal-cost forwarding is
loop-free: each hop strictly decreases the remaining distance to the
destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.routing.spf import CostTable, SpfTree
from repro.topology.graph import Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.routing.spf_cache import SpfCache

#: Relative slack when comparing float path costs for equality.
_COST_TOLERANCE = 1e-9

#: The slack every PSN's router uses: half a hop, below the minimum
#: link cost of the standard line types, so forwarding stays loop-free.
EQUAL_COST_SLACK = 15.0


class MultipathRouter:
    """ECMP next-hop selection for one PSN.

    Parameters
    ----------
    network, root, costs:
        As for :class:`~repro.routing.spf.SpfTree`.  The cost table is
        shared; call :meth:`recompute` after changing it so the
        candidate sets stay consistent.
    mode:
        ``"flow"`` (hash by flow) or ``"packet"`` (round-robin).
    slack:
        Cost slack (routing units) within which a longer path still
        counts as "equal" -- measurement noise otherwise collapses the
        candidate sets the moment parallel paths report slightly
        different costs.  Loop-freedom requires ``slack`` strictly below
        the minimum link cost in the network (then every hop still
        strictly decreases the remaining distance); the constructor
        cannot know all future costs, so callers must respect this.
        Half a hop (:data:`EQUAL_COST_SLACK`, 15 units) is safe for the
        standard line types, whose costs never fall below 22.
    cache:
        Optional shared :class:`~repro.routing.spf_cache.SpfCache`.
        Recomputes need a Dijkstra tree per neighbour; with a shared
        cache, nodes whose cost tables agree (the common, converged
        case) compute each tree once network-wide instead of once per
        router.  Results are identical with or without it.
    """

    def __init__(
        self,
        network: Network,
        root: int,
        costs: CostTable,
        mode: str = "flow",
        slack: float = 0.0,
        cache: Optional["SpfCache"] = None,
    ) -> None:
        if mode not in ("flow", "packet"):
            raise ValueError(f"mode must be 'flow' or 'packet', got {mode!r}")
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        self.network = network
        self.root = root
        self.costs = costs
        self.mode = mode
        self.slack = slack
        self.cache = cache
        self._round_robin: Dict[int, int] = {}
        self._candidates: Dict[int, List[int]] = {}
        self.recompute()

    # ------------------------------------------------------------------
    # Route computation
    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Rebuild the per-destination candidate first-hop sets."""
        if self.cache is not None:
            own_tree = self.cache.shared_tree(self.root, self.costs)
            neighbour_trees = {
                link.link_id: self.cache.shared_tree(link.dst, self.costs)
                for link in self.network.out_links(self.root)
            }
        else:
            own_tree = SpfTree(self.network, self.root, self.costs.copy())
            neighbour_trees = {
                link.link_id: SpfTree(
                    self.network, link.dst, self.costs.copy()
                )
                for link in self.network.out_links(self.root)
            }
        candidates: Dict[int, List[int]] = {}
        for dest in self.network.nodes:
            if dest == self.root or not own_tree.reachable(dest):
                candidates[dest] = []
                continue
            best = own_tree.dist[dest]
            options: List[int] = []
            for link in self.network.out_links(self.root):
                via = (
                    self.costs[link.link_id]
                    + neighbour_trees[link.link_id].dist[dest]
                )
                tolerance = best * _COST_TOLERANCE + _COST_TOLERANCE
                if via <= best + self.slack + tolerance:
                    options.append(link.link_id)
            candidates[dest] = sorted(options)
        self._candidates = candidates

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def next_hop_links(self, dest: int) -> List[int]:
        """All equal-cost first hops toward ``dest`` (may be empty)."""
        return list(self._candidates.get(dest, []))

    def next_hop_link(
        self, dest: int, src: Optional[int] = None
    ) -> Optional[int]:
        """Pick one first hop toward ``dest``.

        ``src`` identifies the flow in ``"flow"`` mode (defaults to the
        root, i.e. all locally originated traffic hashes together).
        """
        options = self._candidates.get(dest, [])
        if not options:
            return None
        if len(options) == 1:
            return options[0]
        if self.mode == "flow":
            key = hash((src if src is not None else self.root, dest))
            return options[key % len(options)]
        index = self._round_robin.get(dest, 0)
        self._round_robin[dest] = index + 1
        return options[index % len(options)]

    def path_diversity(self, dest: int) -> int:
        """Number of equal-cost first hops toward ``dest``."""
        return len(self._candidates.get(dest, []))
