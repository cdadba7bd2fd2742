"""The benchmark's metrics: names, units, directions, bounds, and how
each is derived from what the workers return.

This is the single list the report, ``BENCHMARK.json``, the README's
interaction table and the self-tests are checked against.  ``moves`` on
a per-layer metric is the end-to-end metric it should move and where
(written down before measuring, so a trace can confirm or refute it).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from drives import DRIVES
from trace import LAYERS, LOOP, layer_totals

WALL = "wall_s_per_sim_s"
PER_PACKET = "wall_us_per_delivered_packet"

#: name -> (unit, better, bound).  All host time.  ``bound`` is the share
#: of the parent's median by which the metric may worsen.  The two wall
#: metrics are calibration-normalised (see ``worker.py``): seconds on a
#: machine running steadily at the reference speed; the raw figure is
#: ``host.raw_wall_s_per_sim_s``.  Their bound is three times the widest
#: spread ten seeds showed while the box was at its noisiest (5.2% on
#: ``may87_dspf_steady``, raw wall 29%), rounded up.
END_TO_END = {
    WALL: ("s/s", "lower", 0.20),
    PER_PACKET: ("us", "lower", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

_STEADY = "aug87_steady, may87_dspf_steady, rand128_steady"
_CONTROL = "rand256_boot, then may87_dspf_steady"

#: layer -> (end-to-end metric it should move, on which workloads).
LAYER_MOVES = {
    LOOP: (WALL, "all; largest share on rand128_steady"),
    "psn.link": (f"{WALL}, {PER_PACKET}", _STEADY),
    "psn.inject": (PER_PACKET, _STEADY),
    "psn.receive.data": (PER_PACKET, _STEADY),
    "psn.receive.update": (WALL, f"{_CONTROL}; none on rand128_steady"),
    "psn.receive.ack": (WALL, f"{_CONTROL}; none on rand128_steady"),
    "psn.forward": (PER_PACKET, _STEADY),
    "psn.control": (WALL, "may87_dspf_steady, rand256_boot"),
    "routing.spf": (WALL, f"{_CONTROL}; none on rand128_steady"),
    "routing.spf_cache": (WALL, f"{_CONTROL}; none on rand128_steady"),
    "routing.flooding": (WALL, _CONTROL),
    "metrics.cost": (WALL, "none today (<0.2% everywhere)"),
    "sim.stats": (PER_PACKET, _STEADY),
}

#: name -> (unit, better, moves).  Exact and repeatable at a fixed seed.
COUNTS = {
    "des.events_per_sim_s": ("1/s", "lower", WALL),
    "des.pushes_per_sim_s": ("1/s", "lower", WALL),
    "des.pending_peak": ("count", "lower", WALL),
    "traffic.arrivals_per_sim_s": ("1/s", "higher", "input: offered load"),
    "psn.link.data_packets_per_sim_s": ("1/s", "higher", PER_PACKET),
    "psn.link.control_packets_per_sim_s": ("1/s", "lower", WALL),
    "psn.link.drops_per_sim_s": ("1/s", "lower", "sim.delivery_ratio"),
    "routing.spf.repairs_per_sim_s": ("1/s", "lower", WALL),
    "routing.spf.nodes_scanned_per_sim_s": ("1/s", "lower", WALL),
    "routing.spf_cache.table_hit_ratio": ("ratio", "higher", WALL),
    "routing.flooding.updates_generated_per_sim_s": ("1/s", "lower", WALL),
    "routing.flooding.accept_ratio": ("ratio", "higher", WALL),
    "routing.flooding.retransmits_per_sim_s": ("1/s", "lower", WALL),
    # Simulated statistics: a speed-only change leaves every one
    # identical.  The model is validated for the shape of Table 1 only,
    # so no error-vs-paper figure is given.
    "sim.delivered_packets": ("count", "higher", PER_PACKET),
    "sim.delivery_ratio": ("ratio", "higher", "must not change"),
    "sim.round_trip_delay_ms": ("ms", "lower", "must not change"),
    "sim.updates_per_trunk_s": ("1/s", "lower", "must not change"),
    "sim.path_ratio": ("ratio", "lower", "must not change"),
    "sim.congestion_drops": ("count", "lower", "must not change"),
}

HOST = {
    "host.raw_wall_s_per_sim_s": ("s/s", "lower", "wall as the clock read it"),
    "host.calibration_ratio": ("ratio", "lower", "raw / normalised wall: the box's slowdown"),
    "host.cpu_s_per_sim_s": ("s/s", "lower", WALL),
    "host.wall_us_per_event": ("us", "lower", WALL),
    "setup.import_s": ("s", "lower", "setup_s"),
    "setup.build_s": ("s", "lower", "setup_s"),
    "warm.wall_s": ("s", "lower", "not an end-to-end metric: untimed"),
    "trace.overhead_ratio": ("ratio", "lower", "traced / untraced wall"),
    "trace.residual_share": ("ratio", "lower", "des.loop / traced wall"),
}


def _per_layer() -> Dict[str, tuple]:
    table = {}
    for layer in LAYERS:
        moves = " on ".join(LAYER_MOVES[layer])
        table[f"{layer}.self_s_per_sim_s"] = ("s/s", "lower", moves)
        if layer != LOOP:  # the residual has no calls of its own
            table[f"{layer}.calls_per_sim_s"] = ("1/s", "lower", moves)
    table.update(COUNTS)
    table.update(HOST)
    for name, unit in DRIVES.items():
        table[name] = (unit, "lower", "the layer alone, nothing else running")
    return table


#: name -> (unit, better, moves): what ``--trace 1`` prints.
PER_LAYER = _per_layer()

#: Full runs only (one run each on aug87_steady, 60 -> 120): the cost of
#: looking, as a ratio against an untraced run of the same window.
PROBES = {
    "obs.tracer.overhead_ratio": {"trace": "null"},
    "obs.meters.overhead_ratio": {"metrics": "memory"},
    "faults.invariants.overhead_ratio": {"check_invariants": "record"},
}


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def end_to_end(worker: dict, setups: List[float]) -> Dict[str, float]:
    """One invocation's end-to-end values: medians over its samples."""
    wall = statistics.median(s["norm_s"] for s in worker["samples"])
    delivered = worker["samples"][-1]["report"]["delivered_packets"]
    return {
        WALL: wall / worker["window_s"],
        PER_PACKET: wall * 1e6 / delivered,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer(untraced: dict, traced: dict, drives: dict) -> Dict[str, Optional[float]]:
    """Every ``--trace 1`` value; ``None`` where a wrap target is gone."""
    window = untraced["window_s"]
    sample = untraced["samples"][-1]
    traced_sample = traced["samples"][-1]
    trace = traced_sample["trace"]
    values: Dict[str, Optional[float]] = {}

    # Self times are scaled like the traced sample's wall as a whole.
    scale = traced_sample["norm_s"] / traced_sample["wall_s"] / window
    totals = layer_totals(trace["edges"])
    attributed = 0.0
    for layer in LAYERS:
        if layer == LOOP:
            continue
        calls, self_s = totals.get(layer, (0, 0.0))
        attributed += self_s
        gone = layer in trace["incomplete"]
        values[f"{layer}.self_s_per_sim_s"] = None if gone else self_s * scale
        values[f"{layer}.calls_per_sim_s"] = None if gone else calls / window
    attributed += sum(
        self_s for layer, (_, self_s) in totals.items() if layer not in LAYERS
    )
    residual = traced_sample["wall_s"] - attributed
    values[f"{LOOP}.self_s_per_sim_s"] = residual * scale

    after, before = sample["counters"], untraced["warm_counters"]

    def delta(*names: str) -> Optional[float]:
        if any(name not in after for name in names):
            return None
        return sum(after[n] - before.get(n, 0) for n in names)

    def rate(*names: str) -> Optional[float]:
        total = delta(*names)
        return None if total is None else total / window

    report = sample["report"]
    values.update({
        "des.events_per_sim_s": rate("events_processed"),
        "des.pushes_per_sim_s": rate("events_processed", "events_pending"),
        "des.pending_peak": trace["pending_peak"],
        "traffic.arrivals_per_sim_s": report["offered_packets"] / window,
        "psn.link.data_packets_per_sim_s": rate("data_packets_sent"),
        "psn.link.control_packets_per_sim_s": rate("control_packets_sent"),
        "psn.link.drops_per_sim_s": rate("transmitter_drops"),
        "routing.spf.repairs_per_sim_s": rate(
            "spf_incremental_updates", "spf_batched_passes"
        ),
        "routing.spf.nodes_scanned_per_sim_s": rate("spf_nodes_scanned"),
        "routing.spf_cache.table_hit_ratio": _ratio(
            delta("cache_table_hits"),
            delta("cache_table_hits", "cache_table_misses"),
        ),
        "routing.flooding.updates_generated_per_sim_s": rate("flood_generated"),
        "routing.flooding.accept_ratio": _ratio(
            delta("flood_accepted"),
            delta("flood_accepted", "flood_duplicates"),
        ),
        "routing.flooding.retransmits_per_sim_s": rate("updates_retransmitted"),
        "sim.delivered_packets": report["delivered_packets"],
        "sim.delivery_ratio": report["delivery_ratio"],
        "sim.round_trip_delay_ms": report["round_trip_delay_ms"],
        "sim.updates_per_trunk_s": report["updates_per_trunk_s"],
        "sim.path_ratio": report["path_ratio"],
        "sim.congestion_drops": report["congestion_drops"],
        "host.raw_wall_s_per_sim_s": sample["wall_s"] / window,
        "host.calibration_ratio": sample["wall_s"] / sample["norm_s"],
        "host.cpu_s_per_sim_s": sample["cpu_s"] / window,
        "host.wall_us_per_event": _ratio(
            sample["norm_s"] * 1e6, delta("events_processed")
        ),
        "setup.import_s": untraced["import_s"],
        "setup.build_s": untraced["build_s"],
        "warm.wall_s": untraced["warm_wall_s"],
        "trace.overhead_ratio": traced_sample["norm_s"] / sample["norm_s"],
        "trace.residual_share": residual / traced_sample["wall_s"],
    })
    for name in DRIVES:
        values[name] = drives.get(name, {}).get("value")
    return {name: values[name] for name in PER_LAYER}
