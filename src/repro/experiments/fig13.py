"""Figure 13: dropped packets before and after the HNM installation.

The paper shows daily congestion-drop totals across summer 1987 with a
sharp, sustained fall when the revised metric was deployed (July 7) --
despite ever-rising traffic.  We reproduce the series by simulating one
peak-hour window per "day" with traffic growing day over day, switching
the metric from D-SPF to HN-SPF midway.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.base import ExperimentResult, fresh_arpanet
from repro.metrics import DelayMetric, HopNormalizedMetric
from repro.report import ascii_chart, ascii_table
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.sim.scenarios import MAY_1987_BPS
from repro.topology.arpanet import site_weights
from repro.traffic import TrafficMatrix

TITLE = "Figure 13: ARPANET Dropped Packets (HNM installed mid-series)"

#: Day-over-day traffic growth ("ever-increasing traffic levels").
DAILY_GROWTH = 0.01


def run(fast: bool = False) -> ExperimentResult:
    days = 10 if fast else 20
    switch_day = days // 2
    window_s = 120.0 if fast else 240.0
    warmup_s = 40.0

    series: List[Tuple[int, int, str]] = []
    for day in range(days):
        metric = DelayMetric() if day < switch_day else HopNormalizedMetric()
        network = fresh_arpanet()
        total = MAY_1987_BPS * (1.0 + DAILY_GROWTH) ** day
        traffic = TrafficMatrix.gravity(
            network, total, weights=site_weights()
        )
        sim = NetworkSimulation(
            network, metric, traffic,
            ScenarioConfig(
                duration_s=window_s, warmup_s=warmup_s, seed=100 + day
            ),
        )
        report = sim.run()
        series.append((day, report.congestion_drops, metric.name))

    rows = [
        (day, drops, name, "<== HNM installed" if day == switch_day else "")
        for day, drops, name in series
    ]
    table = ascii_table(
        ["day", "dropped packets (peak hour window)", "metric", ""],
        rows,
    )
    chart = ascii_chart(
        {
            "drops": [(day, float(drops)) for day, drops, _name in series],
        },
        title=TITLE,
        x_label=f"day (HNM installed on day {switch_day})",
        y_label="dropped packets",
    )
    before = [drops for day, drops, _n in series if day < switch_day]
    after = [drops for day, drops, _n in series if day >= switch_day]
    summary = (
        f"mean drops before HNM: {sum(before) / len(before):.0f}; "
        f"after: {sum(after) / len(after):.0f} "
        f"(traffic grew {100 * DAILY_GROWTH:.0f}%/day throughout)"
    )
    return ExperimentResult(
        experiment_id="fig13",
        title=TITLE,
        rendered=f"{chart}\n\n{table}\n\n{summary}",
        data={
            "series": series,
            "before_mean": sum(before) / len(before),
            "after_mean": sum(after) / len(after),
            "switch_day": switch_day,
        },
    )
