"""Fig. 13 — controlled testbed, static: distance from average bit rate available.

Smart EXP3's distance falls over time as devices learn and adapt, while
Greedy's drifts upward when some devices' rates degrade and it fails to react;
the horizontal "optimal" line is the minimum distance achievable at equilibrium
given the (estimated) AP bandwidths.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.aggregate import downsample_series, mean_of_series
from repro.analysis.distance import (
    distance_from_average_rate_series,
    optimal_distance_from_average_rate,
)
from repro.analysis.reducers import SeriesReducer
from repro.experiments.common import ExperimentConfig, run_with_config
from repro.sim.testbed import controlled_static_scenario

POLICIES = ("smart_exp3", "greedy")


def run(config: ExperimentConfig | None = None, series_points: int = 48) -> dict:
    """Return mean distance-from-average-rate series per policy plus the optimum."""
    config = config or ExperimentConfig(runs=3, horizon_slots=240)
    output: dict = {"series": {}, "mean_last_quarter": {}}
    reducer = SeriesReducer(distance_from_average_rate_series)
    optimal = None
    for policy in POLICIES:
        scenario = controlled_static_scenario(
            policy=policy, horizon_slots=config.horizon_slots or 480
        )
        if optimal is None:
            optimal = optimal_distance_from_average_rate(
                scenario.network_map, scenario.num_devices
            )
        series = mean_of_series(run_with_config(scenario, config, reduce=reducer))
        output["series"][policy] = downsample_series(series, series_points).tolist()
        tail = max(len(series) // 4, 1)
        output["mean_last_quarter"][policy] = float(np.mean(series[-tail:]))
    output["optimal_distance"] = float(optimal if optimal is not None else 0.0)
    return output


def paper_config() -> ExperimentConfig:
    return ExperimentConfig(runs=10, horizon_slots=480)
