"""Fig. 8 — dynamic setting 2: 16 of 20 devices leave after t=600.

Resources are freed mid-run; the paper shows only Smart EXP3 (with its minimal
reset) discovers them and converges again, while Smart EXP3 w/o Reset, Greedy
and EXP3 keep their old allocation and stay far from the new equilibrium.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.aggregate import downsample_series, mean_of_series
from repro.analysis.distance import distance_to_nash_series
from repro.analysis.reducers import SeriesReducer
from repro.experiments.common import DYNAMIC_POLICIES, ExperimentConfig, run_scenarios
from repro.sim.scenario import dynamic_leave_scenario


def run(
    config: ExperimentConfig | None = None,
    policies: tuple[str, ...] = DYNAMIC_POLICIES,
    series_points: int = 48,
) -> dict:
    """Return mean distance series per policy plus before/after phase averages."""
    config = config or ExperimentConfig(runs=3, horizon_slots=None)
    output: dict = {"series": {}, "phase_means": {}}
    scenarios = {}
    for policy in policies:
        scenario = dynamic_leave_scenario(policy=policy)
        if config.horizon_slots is not None and config.horizon_slots >= scenario.horizon_slots:
            scenario = scenario.with_horizon(config.horizon_slots)
        scenarios[policy] = scenario
    reducer = SeriesReducer(distance_to_nash_series)
    grid = run_scenarios(scenarios, config, reduce=reducer)
    for policy, runs in grid.items():
        series = mean_of_series(runs)
        output["series"][policy] = downsample_series(series, series_points).tolist()
        output["phase_means"][policy] = {
            "before_leave (1-600)": float(np.mean(series[:600])),
            "transition (601-900)": float(np.mean(series[600:900])),
            "after (901-1200)": float(np.mean(series[900:])),
        }
    return output


def paper_config() -> ExperimentConfig:
    return ExperimentConfig(runs=500, horizon_slots=None)
