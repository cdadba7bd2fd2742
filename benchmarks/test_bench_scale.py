"""Large-network scaling benchmark: events/sec vs node count.

Runs the scenario ladder -- aug87 (57 nodes), grid64 (64), rand256
(256), rand512 (512) -- under four configurations:

* ``perlink`` -- one incremental SPF pass per routing update, classic
  flooding,
* ``batched`` -- buffered updates applied in one batched SPF pass per
  routing interval,
* ``batched+flood`` -- batched SPF and incremental flooding
  (per-neighbour sequence windows suppressing provably redundant update
  forwards; duplicate-ack suppression pinned off so this rung isolates
  the flood windows),
* ``batched+flood+dupack`` -- the complete large-network fast path:
  everything above plus duplicate-ack suppression (skip the explicit
  ack of a duplicate whose implicit ack is provably en route, with
  owed-ack piggybacking when the proof fails).

The *data-plane* fast path -- traffic-source arrival trains, the packet
freelist, the chained link-service loop -- is always on (it is
bit-identical by construction, so there is nothing to ablate), which
means it speeds up every configuration here, the slow baselines most of
all: it removed one kernel event per transmitted packet, and
``perlink`` transmits the most packets.  Config-to-config ratios
therefore *understate* the data-plane gain; compare absolute walls
against an older recording (at similar ``calibration_s``) to see it.

Results go to ``BENCH_scale.json`` at the repository root.  Within one
recording the configurations are *interleaved* (config A, B, C, D, then
A, B, C, D again) and each keeps its best wall time, so machine-speed
drift during the session hits every configuration alike and the speedup
ratios are drift-normalized by construction.  A ``calibration_s``
reference-workload time is stored alongside for comparing recordings
made on different days or machines (same convention as
``BENCH_hotpath.json``).

The short runs deliberately include each network's boot flood: a
512-node network flooding link-state updates over ~1300 links is
exactly the update-storm regime the batched SPF pass and the
flood-suppression windows exist for.

Besides the timings, every sample carries the run's flood counters
(updates on the wire, duplicate deliveries, duplicates avoided) and a
SHA-256 of the final routing tables, so the recorded file documents --
and this test asserts -- that the fast path changes *traffic*, never
*routing*: SPF batching is bit-identical everywhere, and on the large
rungs (incremental flooding's auto-on
regime) the flooded runs deliver the same packets, end with the same
tables, and cut duplicate update deliveries by at least
:data:`FLOOD_MIN_DUPLICATE_REDUCTION`.

Alongside, one extra *profiled* run of the fast-path configuration per
rung records where its wall time goes (exclusive per-phase attribution
from :mod:`repro.obs.profiler`; see ``docs/observability.md``).  The
profiled run is separate from the timed rounds so profiling overhead
never contaminates the recorded events/sec.

Environment knobs (for the CI job):

* ``SCALE_BENCH_REPEATS``   -- interleaved rounds (default 2),
* ``SCALE_BENCH_SCENARIOS`` -- comma-separated subset of the ladder.
"""

import hashlib
import json
import os
import pathlib
import time

from hotpath_common import calibrate

from repro.sim import build_scenario
from repro.sim.network_sim import LARGE_NETWORK_MIN_NODES, ScenarioConfig

BENCH_SCALE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_scale.json"
)

#: Scenario ladder, smallest first.  Durations shrink as networks grow
#: so every rung costs the same order of wall time.
LADDER = [
    {"name": "aug87", "duration_s": 20.0, "warmup_s": 5.0},
    {"name": "grid64", "duration_s": 20.0, "warmup_s": 5.0},
    {"name": "rand256", "duration_s": 6.0, "warmup_s": 2.0},
    {"name": "rand512", "duration_s": 3.0, "warmup_s": 2.0},
]

CONFIGS = {
    "perlink": {"batched_spf": False, "incremental_flooding": False},
    "batched": {"batched_spf": True, "incremental_flooding": False},
    "batched+flood": {
        "batched_spf": True, "incremental_flooding": True,
        "dup_ack_suppression": False,
    },
    "batched+flood+dupack": {
        "batched_spf": True, "incremental_flooding": True,
        "dup_ack_suppression": True,
    },
}

SEED = 3

#: Regression floor: the batched-SPF fast path must beat the
#: small-network path by at least this factor on the 512-node scenario.
#: Measured between ``batched`` and ``perlink`` (identical event
#: counts), so the ratio is a pure throughput comparison.  The floor
#: sits below the historical headline (1.84 in older recordings)
#: deliberately: the data-plane fast path cut ``perlink``'s absolute
#: wall by ~20% (it removes one kernel event per transmitted packet,
#: and the unsuppressed baseline transmits the most packets), which
#: *tightens* this ratio even though every configuration got faster.  The gate guards against real
#: fast-path regressions, not against the baseline improving.
RAND512_MIN_SPEEDUP = 1.3

#: On rungs at or above the large-network threshold, incremental
#: flooding must cut duplicate update deliveries by at least this
#: fraction.  (Suppression needs one copy per circuit as its proof, so
#: *transmissions* can structurally fall at most ~E/(N-1+2E); duplicate
#: deliveries are the redundancy the windows exist to remove.)
FLOOD_MIN_DUPLICATE_REDUCTION = 0.30

#: On the same rungs, duplicate-ack suppression must remove at least
#: this fraction of explicit ack packets relative to the flood-only
#: configuration (measured ~0.19 at both 256 and 512 nodes: ~23% of
#: update deliveries are duplicates, most duplicate acks are skipped,
#: and nearly all owed-ack repayments piggyback on queued control
#: packets instead of costing a packet of their own).
DUP_ACK_MIN_ACK_REDUCTION = 0.15

#: And the complete fast path (flood windows + duplicate-ack
#: suppression) must cut total control packets on the wire by at least
#: this fraction against the unsuppressed ``batched`` run
#: (measured ~0.21 at 512 nodes: flood suppression removes redundant
#: update copies, dup-ack suppression removes their acks).
FULL_PATH_MIN_CONTROL_REDUCTION = 0.15


def _ladder():
    subset = os.environ.get("SCALE_BENCH_SCENARIOS")
    if not subset:
        return LADDER
    wanted = {name.strip() for name in subset.split(",") if name.strip()}
    return [rung for rung in LADDER if rung["name"] in wanted]


def _routing_sha256(simulation):
    """Digest of every node's final next-hop table."""
    digest = hashlib.sha256()
    destinations = sorted(simulation.network.nodes)
    for node_id in sorted(simulation.psns):
        psn = simulation.psns[node_id]
        psn.flush_pending_updates()
        for dst in destinations:
            digest.update(
                f"{node_id}>{dst}:{psn.tree.next_hop_link(dst)};".encode()
            )
    return digest.hexdigest()


def _run_once(rung, config_name):
    config = ScenarioConfig(
        duration_s=rung["duration_s"],
        warmup_s=rung["warmup_s"],
        seed=SEED,
        **CONFIGS[config_name],
    )
    simulation = build_scenario(rung["name"], config=config)
    start = time.perf_counter()
    report = simulation.run()
    wall_s = time.perf_counter() - start
    telemetry = report.telemetry
    return {
        "nodes": len(simulation.network.nodes),
        "links": len(simulation.network.links),
        "wall_s": wall_s,
        "events": simulation.sim.events_processed,
        "delivered_packets": report.delivered_packets,
        "offered_packets": report.offered_packets,
        "update_packets_sent": telemetry.update_packets_sent,
        "ack_packets_sent": telemetry.ack_packets_sent,
        "control_packets_sent": telemetry.control_packets_sent,
        "flood_duplicates": telemetry.flood_duplicates,
        "flood_duplicates_avoided": telemetry.flood_duplicates_avoided,
        "flood_window_evictions": telemetry.flood_window_evictions,
        "dup_acks_suppressed": telemetry.dup_acks_suppressed,
        "owed_acks_sent": telemetry.owed_acks_sent,
        "owed_acks_piggybacked": telemetry.owed_acks_piggybacked,
        "updates_retransmitted": telemetry.updates_retransmitted,
        "routing_sha256": _routing_sha256(simulation),
    }


def profile_rung(rung, config_name="batched+flood+dupack"):
    """One profiled run of a rung: exclusive per-phase wall seconds.

    Returns ``{"wall_s": ..., "phases": {phase: seconds}}`` for the
    run.  Kept out of the timing rounds: wrapping the hot methods for
    attribution costs a few percent, which must not leak into the
    recorded events/sec.
    """
    config = ScenarioConfig(
        duration_s=rung["duration_s"],
        warmup_s=rung["warmup_s"],
        seed=SEED,
        profile=True,
        **CONFIGS[config_name],
    )
    simulation = build_scenario(rung["name"], config=config)
    report = simulation.run()
    telemetry = report.telemetry
    return {
        "config": config_name,
        "wall_s": telemetry.wall_s,
        "phases": telemetry.phase_wall_s,
    }


def measure_scaling(repeats):
    """Interleaved best-of-``repeats`` measurement of the whole ladder."""
    ladder = _ladder()
    results = {rung["name"]: {} for rung in ladder}
    for _ in range(max(repeats, 1)):
        for rung in ladder:
            for config_name in CONFIGS:
                sample = _run_once(rung, config_name)
                kept = results[rung["name"]].get(config_name)
                if kept is None or sample["wall_s"] < kept["wall_s"]:
                    results[rung["name"]][config_name] = sample

    scenarios = []
    for rung in ladder:
        configs = {}
        for config_name, sample in results[rung["name"]].items():
            configs[config_name] = dict(
                sample, events_per_s=sample["events"] / sample["wall_s"]
            )
        baseline = configs["perlink"]
        classic = configs["batched"]
        flooded = configs["batched+flood"]
        full = configs["batched+flood+dupack"]
        duplicates = classic["flood_duplicates"]
        scenarios.append(
            {
                "name": rung["name"],
                "nodes": baseline["nodes"],
                "links": baseline["links"],
                "duration_s": rung["duration_s"],
                "warmup_s": rung["warmup_s"],
                "seed": SEED,
                "configs": configs,
                "fast_path_speedup": (
                    classic["events_per_s"] / baseline["events_per_s"]
                ),
                "flood_duplicate_reduction": (
                    1.0 - flooded["flood_duplicates"] / duplicates
                    if duplicates else 0.0
                ),
                "flood_update_packet_reduction": (
                    1.0 - flooded["update_packets_sent"]
                    / classic["update_packets_sent"]
                    if classic["update_packets_sent"] else 0.0
                ),
                "dup_ack_ack_reduction": (
                    1.0 - full["ack_packets_sent"]
                    / flooded["ack_packets_sent"]
                    if flooded["ack_packets_sent"] else 0.0
                ),
                "full_path_control_reduction": (
                    1.0 - full["control_packets_sent"]
                    / classic["control_packets_sent"]
                    if classic["control_packets_sent"] else 0.0
                ),
                "phase_profile": profile_rung(rung),
            }
        )
    return scenarios


def _render(scenarios):
    lines = [
        f"{'scenario':<10} {'nodes':>5} {'links':>5} "
        f"{'perlink':>14} {'batched':>14} {'fast path':>10} "
        f"{'dup cut':>8} {'upd cut':>8} {'ack cut':>8} {'ctl cut':>8}"
    ]
    for s in scenarios:
        cfg = s["configs"]
        lines.append(
            f"{s['name']:<10} {s['nodes']:>5} {s['links']:>5} "
            f"{cfg['perlink']['events_per_s']:>12,.0f}/s "
            f"{cfg['batched']['events_per_s']:>12,.0f}/s "
            f"{s['fast_path_speedup']:>9.2f}x "
            f"{s['flood_duplicate_reduction']:>7.1%} "
            f"{s['flood_update_packet_reduction']:>7.1%} "
            f"{s['dup_ack_ack_reduction']:>7.1%} "
            f"{s['full_path_control_reduction']:>7.1%}"
        )
    return "\n".join(lines)


def _render_profile(scenarios):
    phases = ("spf", "forwarding", "stats", "measurement", "scheduling")
    lines = [
        f"{'scenario':<10} {'wall':>7} "
        + " ".join(f"{phase:>12}" for phase in phases)
    ]
    for s in scenarios:
        profile = s["phase_profile"]
        wall = profile["wall_s"]
        cells = []
        for phase in phases:
            seconds = profile["phases"].get(phase, 0.0)
            share = (seconds / wall * 100.0) if wall else 0.0
            cells.append(f"{seconds:>6.2f}s {share:>3.0f}%")
        lines.append(f"{s['name']:<10} {wall:>6.2f}s " + " ".join(cells))
    return "\n".join(lines)


def test_bench_scale_events_per_sec():
    repeats = int(os.environ.get("SCALE_BENCH_REPEATS", "2"))
    scenarios = measure_scaling(repeats)
    record = {
        "schema": 3,
        "wall_is": f"best of {repeats} interleaved runs",
        "calibration_s": calibrate(),
        "repeats": repeats,
        "scenarios": scenarios,
    }
    by_name = {s["name"]: s for s in scenarios}
    if "rand512" in by_name:
        record["rand512_fast_path_speedup"] = by_name["rand512"][
            "fast_path_speedup"
        ]
        record["rand512_flood_reduction"] = by_name["rand512"][
            "flood_duplicate_reduction"
        ]
        record["rand512_ack_reduction"] = by_name["rand512"][
            "dup_ack_ack_reduction"
        ]
        record["rand512_control_reduction"] = by_name["rand512"][
            "full_path_control_reduction"
        ]
    with open(BENCH_SCALE_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print()
    print("=" * 72)
    print("Large-network scaling: kernel events/sec by configuration")
    print("=" * 72)
    print(_render(scenarios))
    print()
    print("Fast-path wall-time attribution (exclusive, profiled run)")
    print("-" * 72)
    print(_render_profile(scenarios))

    for s in scenarios:
        cfg = s["configs"]
        name = s["name"]
        perlink = cfg["perlink"]
        batched = cfg["batched"]
        flooded = cfg["batched+flood"]
        full = cfg["batched+flood+dupack"]
        # Batched SPF shares the canonical tie-break with per-update
        # repair, so batching is bit-identical -- not merely close.
        for field in ("events", "delivered_packets", "offered_packets",
                      "routing_sha256"):
            assert perlink[field] == batched[field], (
                f"{name}: batched SPF changed {field}"
            )
        # Incremental flooding only removes provably redundant update
        # copies (and adds its deferral timers, so event counts differ).
        # In its auto-on regime -- the large rungs, whose windows are
        # boot-flood dominated -- the data plane and the final routing
        # tables must not move at all.  The small rungs run long enough
        # to reach steady-state updates, where the per-circuit deferral
        # legitimately shifts *when* a duplicate-path copy lands (never
        # *what* is learned), so their trajectories are not pinned.
        if s["nodes"] >= LARGE_NETWORK_MIN_NODES:
            for field in ("delivered_packets", "offered_packets",
                          "routing_sha256"):
                assert batched[field] == flooded[field], (
                    f"{name}: incremental flooding changed {field}"
                )
            assert flooded["update_packets_sent"] < \
                batched["update_packets_sent"], (
                    f"{name}: flood suppression removed no update packets"
                )
            assert s["flood_duplicate_reduction"] >= \
                FLOOD_MIN_DUPLICATE_REDUCTION, (
                    f"{name}: incremental flooding cut duplicates by only "
                    f"{s['flood_duplicate_reduction']:.1%} "
                    f"(need {FLOOD_MIN_DUPLICATE_REDUCTION:.0%})"
                )
            # Duplicate-ack suppression removes only explicit acks whose
            # information provably reaches (or already reached) the
            # sender another way: the data plane and the routing tables
            # are pinned, and the reliability machinery never degrades
            # into retransmission -- every skip either becomes an
            # implicit ack or is repaid within one retransmit period.
            for field in ("delivered_packets", "offered_packets",
                          "routing_sha256"):
                assert flooded[field] == full[field], (
                    f"{name}: duplicate-ack suppression changed {field}"
                )
            assert full["updates_retransmitted"] == 0, (
                f"{name}: duplicate-ack suppression caused "
                f"{full['updates_retransmitted']} retransmissions "
                f"(ack-starvation livelock)"
            )
            assert s["dup_ack_ack_reduction"] >= DUP_ACK_MIN_ACK_REDUCTION, (
                f"{name}: duplicate-ack suppression cut ack packets by "
                f"only {s['dup_ack_ack_reduction']:.1%} "
                f"(need {DUP_ACK_MIN_ACK_REDUCTION:.0%})"
            )
            assert s["full_path_control_reduction"] >= \
                FULL_PATH_MIN_CONTROL_REDUCTION, (
                    f"{name}: full fast path cut control packets by only "
                    f"{s['full_path_control_reduction']:.1%} "
                    f"(need {FULL_PATH_MIN_CONTROL_REDUCTION:.0%})"
                )

    if "rand512" in by_name:
        speedup = by_name["rand512"]["fast_path_speedup"]
        assert speedup >= RAND512_MIN_SPEEDUP, (
            f"fast path too slow at 512 nodes: {speedup:.2f}x "
            f"(need {RAND512_MIN_SPEEDUP}x, bench in {BENCH_SCALE_PATH})"
        )
