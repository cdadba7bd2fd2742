"""Table 1: ARPANET network-wide performance indicators.

Replays the before/after study: D-SPF under the May 1987 peak-hour load
versus HN-SPF under the (13% higher) August 1987 load, on the same
topology and with the same random seed.  The paper's findings to
reproduce in *shape*: despite more traffic, HN-SPF cuts round-trip delay,
generates fewer routing updates (longer update period), and drops the
actual/minimum path-length ratio.

Our substrate is a simulator with a synthetic topology, so the absolute
values differ from BBN's measurements; the table prints both for
comparison.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.report import ascii_table
from repro.sim import ScenarioConfig, build_scenario

TITLE = "Table 1: ARPANET Network-wide Performance Indicators"

#: The paper's measured values, for side-by-side display.
PAPER_VALUES = {
    "May 87 (D-SPF)": {
        "traffic_kbps": 366.26,
        "rtt_ms": 635.45,
        "updates_per_trunk_s": 2.04,
        "update_period_s": 22.06,
        "actual_path": 4.91,
        "min_path": 3.97,
        "path_ratio": 1.24,
    },
    "Aug 87 (HN-SPF)": {
        "traffic_kbps": 413.99,
        "rtt_ms": 338.59,
        "updates_per_trunk_s": 1.74,
        "update_period_s": 26.32,
        "actual_path": 3.70,
        "min_path": 3.24,
        "path_ratio": 1.14,
    },
}


def run(fast: bool = False) -> ExperimentResult:
    duration = 180.0 if fast else 600.0
    warmup = 60.0 if fast else 120.0

    # The benchmark's may87 / aug87 workloads, by construction.
    config = ScenarioConfig(duration_s=duration, warmup_s=warmup, seed=3)
    may = build_scenario("may87", config=config).run()
    aug = build_scenario("aug87", config=config).run()
    rows = [
        ("Internode Traffic (kbps)", may.internode_traffic_kbps,
         aug.internode_traffic_kbps,
         PAPER_VALUES["May 87 (D-SPF)"]["traffic_kbps"],
         PAPER_VALUES["Aug 87 (HN-SPF)"]["traffic_kbps"]),
        ("Round Trip Delay (ms)", may.round_trip_delay_ms,
         aug.round_trip_delay_ms,
         PAPER_VALUES["May 87 (D-SPF)"]["rtt_ms"],
         PAPER_VALUES["Aug 87 (HN-SPF)"]["rtt_ms"]),
        ("Rtg. Updates per Trunk/sec", may.updates_per_trunk_s,
         aug.updates_per_trunk_s,
         PAPER_VALUES["May 87 (D-SPF)"]["updates_per_trunk_s"],
         PAPER_VALUES["Aug 87 (HN-SPF)"]["updates_per_trunk_s"]),
        ("Update Period per Node (sec)", may.update_period_per_node_s,
         aug.update_period_per_node_s,
         PAPER_VALUES["May 87 (D-SPF)"]["update_period_s"],
         PAPER_VALUES["Aug 87 (HN-SPF)"]["update_period_s"]),
        ("Internode Actual Path (hops)", may.actual_path_hops,
         aug.actual_path_hops,
         PAPER_VALUES["May 87 (D-SPF)"]["actual_path"],
         PAPER_VALUES["Aug 87 (HN-SPF)"]["actual_path"]),
        ("Internode Minimum Path (hops)", may.minimum_path_hops,
         aug.minimum_path_hops,
         PAPER_VALUES["May 87 (D-SPF)"]["min_path"],
         PAPER_VALUES["Aug 87 (HN-SPF)"]["min_path"]),
        ("Path Ratio (Actual/Min.)", may.path_ratio, aug.path_ratio,
         PAPER_VALUES["May 87 (D-SPF)"]["path_ratio"],
         PAPER_VALUES["Aug 87 (HN-SPF)"]["path_ratio"]),
        ("Congestion drops", may.congestion_drops, aug.congestion_drops,
         "-", "-"),
        ("Delivery ratio", may.delivery_ratio, aug.delivery_ratio,
         "-", "-"),
    ]
    table = ascii_table(
        ["indicator", "ours: May(D-SPF)", "ours: Aug(HN-SPF)",
         "paper: May", "paper: Aug"],
        rows,
        title=TITLE,
    )
    return ExperimentResult(
        experiment_id="table1",
        title=TITLE,
        rendered=table,
        data={"may": may, "aug": aug, "paper": PAPER_VALUES},
    )
