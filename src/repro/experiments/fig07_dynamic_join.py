"""Fig. 7 — dynamic setting 1: 9 devices join at t=401 and leave after t=800.

The paper shows that only Smart EXP3 and Smart EXP3 w/o Reset absorb the
arrival (their distance to equilibrium rises while the newcomers explore, then
falls back towards the ε band), while EXP3 never converges and Greedy remains
stuck at a bad allocation.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.aggregate import downsample_series, mean_of_series
from repro.analysis.distance import distance_to_nash_series
from repro.analysis.reducers import SeriesReducer
from repro.experiments.common import DYNAMIC_POLICIES, ExperimentConfig, run_scenarios
from repro.sim.scenario import dynamic_join_leave_scenario


def run(
    config: ExperimentConfig | None = None,
    policies: tuple[str, ...] = DYNAMIC_POLICIES,
    series_points: int = 48,
) -> dict:
    """Return mean distance-to-equilibrium series per policy plus phase averages."""
    config = config or ExperimentConfig(runs=3, horizon_slots=None)
    output: dict = {"series": {}, "phase_means": {}}
    scenarios = {}
    for policy in policies:
        scenario = dynamic_join_leave_scenario(policy=policy)
        if config.horizon_slots is not None and config.horizon_slots >= scenario.horizon_slots:
            scenario = scenario.with_horizon(config.horizon_slots)
        scenarios[policy] = scenario
    reducer = SeriesReducer(distance_to_nash_series)
    grid = run_scenarios(scenarios, config, reduce=reducer)
    for policy, runs in grid.items():
        series = mean_of_series(runs)
        output["series"][policy] = downsample_series(series, series_points).tolist()
        output["phase_means"][policy] = {
            "before_join (1-400)": float(np.mean(series[:400])),
            "during (401-800)": float(np.mean(series[400:800])),
            "after_leave (801-1200)": float(np.mean(series[800:])),
        }
    return output


def paper_config() -> ExperimentConfig:
    return ExperimentConfig(runs=500, horizon_slots=None)
