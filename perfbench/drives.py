"""Layer drives: public functions timed in isolation.

Wrapping from outside cannot see inside the event loop (``_run_heap``
inlines its queue operations) and distorts very short calls, so these
drives time one layer at a time through its public interface, with
nothing else running.  Each figure is the median of ``REPEATS`` runs,
reported with its spread ((max - min) / median).

Run as ``python perfbench/drives.py [--quick]`` (prints one JSON
object), or through ``run.py``, which runs it once per traced invocation
and once per full report.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

REPEATS = 5

#: name -> unit, in report order.
DRIVES = {
    "drive.des.ns_per_event_1k": "ns",
    "drive.des.ns_per_event_100k": "ns",
    "drive.spf.full_us_n57": "us",
    "drive.spf.full_us_n256": "us",
    "drive.spf.batch_repair_us_n57": "us",
    "drive.spf.batch_repair_us_n256": "us",
    "drive.metrics.ns_per_link": "ns",
    "drive.link.ns_per_packet": "ns",
    "drive.traffic.ns_per_arrival": "ns",
}


def _noop(*_args) -> None:
    pass


def des_ns_per_event(pending: int, events: int = 200_000) -> float:
    """Default ``Simulator()`` with ``pending`` self-rescheduling no-op
    callbacks queued: the cost of one pop + dispatch + push at that
    queue depth (100k is past the heap-to-calendar migration point)."""
    from repro.des import Simulator

    sim = Simulator()
    call_in = sim.call_in

    def tick(period: float) -> None:
        call_in(period, tick, period)

    rng = random.Random(pending)
    for _ in range(pending):
        call_in(rng.random(), tick, 1.0)
    sim.run(until=1.0)  # every callback now reschedules one period ahead
    before = sim.events_processed
    start = time.perf_counter()
    sim.run(until=1.0 + events / pending)
    elapsed = time.perf_counter() - start
    return elapsed * 1e9 / (sim.events_processed - before)


def _networks() -> dict:
    from repro.topology import build_arpanet_1987
    from repro.topology.generators import build_random_network
    from repro.topology.linetypes import line_type

    return {
        "n57": build_arpanet_1987(),
        "n256": build_random_network(
            256, extra_circuits=64, seed=11, line=line_type("T1-T")
        ),
    }


def spf_us(network, calls: int = 50) -> tuple:
    """(full recompute, 8-change batched repair) in microseconds per call."""
    from repro.metrics import HopNormalizedMetric
    from repro.routing.spf import CostTable, SpfTree

    costs = CostTable.from_metric(network, HopNormalizedMetric())
    tree = SpfTree(network, network.links[0].src, costs)
    start = time.perf_counter()
    for _ in range(calls):
        tree.recompute()
    full = (time.perf_counter() - start) * 1e6 / calls

    rng = random.Random(8)
    links = rng.sample(range(len(network.links)), 8)
    idle = [(link_id, costs[link_id]) for link_id in links]
    loaded = [(link_id, cost * 2.0) for link_id, cost in idle]
    start = time.perf_counter()
    for _ in range(4 * calls):
        tree.update_costs(loaded)
        tree.update_costs(idle)
    repair = (time.perf_counter() - start) * 1e6 / (8 * calls)
    return full, repair


def metrics_ns_per_link(network, calls: int = 2000) -> float:
    """``HopNormalizedMetric.measured_costs`` over the aug87 links."""
    import numpy as np

    from repro.metrics import HopNormalizedMetric

    metric = HopNormalizedMetric()
    links = list(network.links)
    state = metric.create_vector_state(links)
    delays = np.array([
        1000.0 / link.bandwidth_bps + link.propagation_s + 0.01
        for link in links
    ])
    start = time.perf_counter()
    for _ in range(calls):
        metric.measured_costs(state, delays)
    return (time.perf_counter() - start) * 1e9 / (calls * len(links))


def link_ns_per_packet(network, packets: int = 20_000) -> float:
    """One ``LinkTransmitter`` draining a full queue of data packets
    (two loop events per packet included)."""
    from repro.des import Simulator
    from repro.psn.interfaces import LinkTransmitter
    from repro.psn.packet import PacketKind, acquire, release

    sim = Simulator()
    link = network.links[0]
    transmitter = LinkTransmitter(
        sim, link, deliver=lambda packet, _link: release(packet),
        buffer_packets=packets,
    )
    for _ in range(packets):
        transmitter.send(acquire(PacketKind.DATA, link.src, link.dst, 600.0, 0.0))
    start = time.perf_counter()
    sim.run()
    return (time.perf_counter() - start) * 1e9 / packets


def traffic_ns_per_arrival(network, until_s: float = 60.0) -> float:
    """``start_sources`` over the aug87 gravity matrix with a no-op
    ``emit``: one pop, one push and 1/64 of a train refill per arrival
    (the first refill of every source is drawn before the clock starts)."""
    from repro.des import RandomStreams, Simulator
    from repro.sim.scenarios import AUG_1987_BPS
    from repro.topology.arpanet import site_weights
    from repro.traffic import TrafficMatrix
    from repro.traffic.sources import start_sources

    sim = Simulator()
    matrix = TrafficMatrix.gravity(
        network, AUG_1987_BPS, weights=site_weights()
    )
    start_sources(sim, RandomStreams(3), matrix, emit=_noop)
    sim.run(until=1.0)
    before = sim.events_processed
    start = time.perf_counter()
    sim.run(until=1.0 + until_s)
    elapsed = time.perf_counter() - start
    return elapsed * 1e9 / (sim.events_processed - before)


def run_drives(repeats: int = REPEATS) -> dict:
    """name -> {"value": median, "unit", "spread", "n"}."""
    networks = _networks()
    raw = {name: [] for name in DRIVES}
    for _ in range(repeats):
        raw["drive.des.ns_per_event_1k"].append(des_ns_per_event(1_000))
        raw["drive.des.ns_per_event_100k"].append(des_ns_per_event(100_000))
        for size, network in networks.items():
            full, repair = spf_us(network)
            raw[f"drive.spf.full_us_{size}"].append(full)
            raw[f"drive.spf.batch_repair_us_{size}"].append(repair)
        raw["drive.metrics.ns_per_link"].append(
            metrics_ns_per_link(networks["n57"])
        )
        raw["drive.link.ns_per_packet"].append(
            link_ns_per_packet(networks["n57"])
        )
        raw["drive.traffic.ns_per_arrival"].append(
            traffic_ns_per_arrival(networks["n57"])
        )
    results = {}
    for name, values in raw.items():
        median = statistics.median(values)
        results[name] = {
            "value": median,
            "unit": DRIVES[name],
            "spread": (max(values) - min(values)) / median,
            "n": len(values),
        }
    return results


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    # ``--quick``: once through, a smoke test.
    print(json.dumps(run_drives(1 if "--quick" in sys.argv else REPEATS)))
