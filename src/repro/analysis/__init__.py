"""Evaluation metrics derived from simulation results.

Implements the paper's evaluation criteria:

* Definition 2 — *stable state* (:mod:`repro.analysis.stability`).
* Definition 3 — *distance to Nash equilibrium* (:mod:`repro.analysis.distance`).
* Definition 4 — *distance from average bit rate available*
  (:mod:`repro.analysis.distance`).
* Fairness as the standard deviation of per-device cumulative downloads
  (:mod:`repro.analysis.fairness`).
* Cross-run aggregation helpers and plain-text table formatting
  (:mod:`repro.analysis.aggregate`, :mod:`repro.analysis.reporting`).
* Streaming reductions applied inside ``run_many`` workers
  (:mod:`repro.analysis.reducers`).

Everything operates on the columnar ``(devices, slots)`` blocks of
:class:`~repro.sim.metrics.SimulationResult`: switch counts, downloads, Jain
fairness and distance-to-Nash are single vectorized expressions over the
device axis.
"""

from repro.analysis.aggregate import (
    downloads_over_runs,
    mean_of_series,
    mean_over_runs,
    median_over_runs,
    summarize_runs,
    switch_counts_over_runs,
)
from repro.analysis.distance import (
    distance_from_average_rate_series,
    distance_to_nash_series,
    fraction_of_time_at_equilibrium,
    optimal_distance_from_average_rate,
)
from repro.analysis.fairness import (
    download_jains_index,
    download_std_mb,
    jains_index,
    unutilized_bandwidth_gb,
)
from repro.analysis.reducers import (
    DownloadReducer,
    Reducer,
    RunSummaries,
    SeriesReducer,
    StabilityReducer,
    SummaryReducer,
    TimeSeriesReducer,
    available_reducers,
    resolve_reducer,
)
from repro.analysis.reporting import format_run_summaries, format_table
from repro.analysis.stability import StabilityReport, stability_report, time_to_stable

__all__ = [
    "DownloadReducer",
    "Reducer",
    "RunSummaries",
    "SeriesReducer",
    "StabilityReducer",
    "StabilityReport",
    "SummaryReducer",
    "TimeSeriesReducer",
    "available_reducers",
    "distance_from_average_rate_series",
    "distance_to_nash_series",
    "download_jains_index",
    "download_std_mb",
    "downloads_over_runs",
    "format_run_summaries",
    "format_table",
    "fraction_of_time_at_equilibrium",
    "jains_index",
    "mean_of_series",
    "mean_over_runs",
    "median_over_runs",
    "optimal_distance_from_average_rate",
    "resolve_reducer",
    "stability_report",
    "summarize_runs",
    "switch_counts_over_runs",
    "time_to_stable",
    "unutilized_bandwidth_gb",
]
