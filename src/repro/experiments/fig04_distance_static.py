"""Fig. 4a/4b — average distance to Nash equilibrium over time, settings 1 and 2.

For every algorithm the per-slot distance (Definition 3) is averaged over runs;
the paper additionally quotes the fraction of time Smart EXP3 spends within the
ε = 7.5 % band of the equilibrium.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.aggregate import downsample_series, mean_of_series
from repro.analysis.distance import distance_to_nash_series, fraction_of_time_at_equilibrium
from repro.analysis.reducers import SeriesReducer
from repro.experiments.common import (
    ALL_POLICIES,
    STATIC_SETTINGS,
    ExperimentConfig,
    run_policy_grid,
)

#: ε used for the shaded band in Fig. 4.
EPSILON_PERCENT = 7.5


def run(
    config: ExperimentConfig | None = None,
    policies: tuple[str, ...] = ALL_POLICIES,
    series_points: int = 40,
) -> dict:
    """Return mean distance series (downsampled) and time-at-equilibrium fractions.

    Each run is reduced to its distance series where it executes, so no
    run's record outlives its stack and ``config.cache`` applies.
    """
    config = config or ExperimentConfig.default()
    output: dict = {"epsilon_percent": EPSILON_PERCENT, "settings": {}}
    grids = run_policy_grid(
        STATIC_SETTINGS, policies, config, reduce=SeriesReducer(distance_to_nash_series)
    )
    for setting_name, grid in grids.items():
        setting_entry: dict = {"series": {}, "fraction_at_equilibrium": {}, "final_distance": {}}
        for policy in policies:
            series = grid[policy]
            mean_series = mean_of_series(series)
            setting_entry["series"][policy] = downsample_series(mean_series, series_points).tolist()
            setting_entry["fraction_at_equilibrium"][policy] = float(
                np.mean([fraction_of_time_at_equilibrium(s, EPSILON_PERCENT) for s in series])
            )
            tail = max(len(mean_series) // 5, 1)
            setting_entry["final_distance"][policy] = float(np.mean(mean_series[-tail:]))
        output["settings"][setting_name] = setting_entry
    return output


def paper_config() -> ExperimentConfig:
    return ExperimentConfig.paper()
