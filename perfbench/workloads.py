"""The benchmark's workloads: what is simulated, and for how long.

Every workload drives **the default configuration only**: it sets
``duration_s``, ``warmup_s`` and ``seed`` on ``ScenarioConfig`` and
nothing else, so deleting a speed or protocol switch can never break the
benchmark.  The simulated spans are fixed per workload; they are never
scaled to fit a time budget (``quick`` divides them by ten for smoke
tests and stamps the output as not comparable).

Importing this module does not import ``repro``: the parent process
reads names and spans from it, only workers build simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for BENCHMARK.json.
    why: str
    #: Untimed simulated seconds before the timed window (0 = timed cold).
    warm_s: float
    #: End of the timed window, simulated seconds.
    end_s: float
    #: ``sim.delivery_ratio`` under this is a failed run: the load point
    #: must stay on the pre-congestion side of the delay-vs-load curve
    #: or delivered packets stop being a meaningful denominator.
    delivery_floor: float
    #: ``build(config) -> NetworkSimulation``.
    build: Callable

    @property
    def window_s(self) -> float:
        return self.end_s - self.warm_s

    def quick(self) -> "Workload":
        """Spans divided by ten: a smoke test, never a measurement."""
        return replace(
            self, warm_s=self.warm_s / 10.0, end_s=self.end_s / 10.0,
            delivery_floor=0.0,
        )


def _scenario(name: str) -> Callable:
    def build(config):
        from repro.sim.scenarios import build_scenario

        return build_scenario(name, config=config)

    return build


#: Topology and traffic-matrix seed of ``rand128_steady``.  Fixed, like
#: the scenarios' own: a topology drawn from ``--seed`` changes path
#: lengths, and with them the work per simulated second, by more than
#: any regression bound.  ``--seed`` drives the random streams (arrival
#: times, packet sizes, measurement phases) on every workload alike.
RAND128_SEED = 3


def _rand128(config):
    """128 nodes / 159 T1 circuits, generated here.

    128 is ``LARGE_NETWORK_MIN_NODES``, so the run takes whatever the
    default does for large networks.
    """
    from repro.metrics import HopNormalizedMetric
    from repro.sim import NetworkSimulation
    from repro.topology.generators import build_random_network
    from repro.topology.linetypes import line_type
    from repro.traffic import TrafficMatrix

    network = build_random_network(
        128, extra_circuits=32, seed=RAND128_SEED, line=line_type("T1-T")
    )
    traffic = TrafficMatrix.random_pairs(
        network, 2_000_000.0, pairs=256, seed=RAND128_SEED
    )
    return NetworkSimulation(network, HopNormalizedMetric(), traffic, config)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "aug87_steady",
            "57-node ARPANET, HN-SPF, Table 1 load, past boot and ease-in: "
            "the paper's own feedback loop; data plane ~70% of time, "
            "SPF+flooding ~8%",
            60.0, 180.0, 0.80, _scenario("aug87"),
        ),
        Workload(
            "may87_dspf_steady",
            "same network under D-SPF, which oscillates: 3-5x the updates "
            "and SPF scans of aug87_steady, so control-plane and "
            "data-plane changes move the two apart",
            60.0, 180.0, 0.80, _scenario("may87"),
        ),
        Workload(
            "rand256_boot",
            "256-node boot flood timed cold: ~390k control packets, the "
            "only workload that crosses into the calendar queue; home of "
            "flooding, dup-ack, batched-SPF and scheduler work",
            0.0, 2.0, 0.85, _scenario("rand256"),
        ),
        Workload(
            "rand128_steady",
            "128 generated nodes after ease-in: data packets and almost no "
            "updates, so control-plane optimisations should not move it "
            "while queue, link and forwarding work should",
            60.0, 90.0, 0.95, _rand128,
        ),
    )
}


def build_simulation(
    workload: Workload, seed: int, extra: Optional[dict] = None
):
    """The workload's simulation at ``seed``.

    ``extra`` holds further ``ScenarioConfig`` fields and is used only by
    the invariant-checked run and the observability probes; measured and
    traced runs pass none.  An option that no longer exists raises
    ``TypeError``, which callers report as "not attempted".
    """
    from repro.sim import ScenarioConfig

    config = ScenarioConfig(
        duration_s=workload.end_s, warmup_s=workload.warm_s, seed=seed,
        **(extra or {}),
    )
    return workload.build(config)
