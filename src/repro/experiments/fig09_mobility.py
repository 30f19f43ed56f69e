"""Fig. 9 — dynamic setting 3: devices moving across three service areas.

Five networks (16/14/22/7/4 Mbps) cover a food court, a study area and a bus
stop; 8 of the 20 devices move between areas at t=401 and t=801.  The paper
plots the distance to equilibrium separately for the moving devices and for the
devices of each area, and finds Smart EXP3 the best for every group.

The per-group distance is computed against the networks visible from that
group's (home) area; the moving group is evaluated against the full network
set.  This is the closest decomposition available without re-deriving the
paper's exact per-area accounting.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.aggregate import downsample_series, mean_of_series
from repro.analysis.distance import distance_to_nash_series
from repro.experiments.common import DYNAMIC_POLICIES, ExperimentConfig, run_scenarios
from repro.sim.scenario import mobility_scenario


def run(
    config: ExperimentConfig | None = None,
    policies: tuple[str, ...] = DYNAMIC_POLICIES,
    series_points: int = 48,
) -> dict:
    """Return, per device group and policy, the mean distance series."""
    config = config or ExperimentConfig(runs=3, horizon_slots=None)
    template = mobility_scenario()
    groups = {group.name: group.device_ids for group in template.device_groups}
    # Networks visible from each group's home area (the moving group sees all).
    group_networks: dict[str, tuple[int, ...] | None] = {
        "moving (1-8)": None,
        "food court (9-10)": (2, 3, 4),
        "study area (11-15)": (1, 3),
        "bus stop (16-20)": (3, 4, 5),
    }
    output: dict = {"groups": {name: {} for name in groups}, "mean_over_run": {}}
    scenarios = {}
    for policy in policies:
        scenario = mobility_scenario(policy=policy)
        if config.horizon_slots is not None and config.horizon_slots >= scenario.horizon_slots:
            scenario = scenario.with_horizon(config.horizon_slots)
        scenarios[policy] = scenario
    grid = run_scenarios(scenarios, config)
    for policy, results in grid.items():
        overall: list[float] = []
        for group_name, device_ids in groups.items():
            network_ids = group_networks.get(group_name)
            series = mean_of_series(
                [
                    distance_to_nash_series(
                        r, device_ids=device_ids, network_ids=network_ids
                    )
                    for r in results
                ]
            )
            output["groups"][group_name][policy] = downsample_series(
                series, series_points
            ).tolist()
            overall.append(float(np.mean(series)))
        output["mean_over_run"][policy] = float(np.mean(overall))
    return output


def paper_config() -> ExperimentConfig:
    return ExperimentConfig(runs=500, horizon_slots=None)
