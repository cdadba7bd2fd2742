"""Plain-text rendering of tables/charts and trace post-processing.

:mod:`repro.report.timeseries` turns a recorded JSONL trace back into
the per-link cost and utilization series the paper's figures plot.
"""

from repro.report.tables import ascii_table
from repro.report.plots import ascii_chart
from repro.report.resilience import resilience_summary
from repro.report.timeseries import (
    bucketed_rate,
    cost_timeseries,
    drop_timeseries,
    event_counts,
    read_trace,
    utilization_timeseries,
)

__all__ = [
    "ascii_chart",
    "ascii_table",
    "bucketed_rate",
    "cost_timeseries",
    "drop_timeseries",
    "event_counts",
    "read_trace",
    "resilience_summary",
    "utilization_timeseries",
]
