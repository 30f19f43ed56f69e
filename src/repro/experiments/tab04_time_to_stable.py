"""Table IV — median number of time slots to reach a stable state.

The paper reports (setting 1 / setting 2): Block EXP3 1026 / 810, Hybrid Block
EXP3 583.5 / 366, Smart EXP3 w/o Reset 359 / 244.5 — i.e. the greedy policy and
the switch-back mechanism each cut the convergence time substantially.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stability import time_to_stable
from repro.experiments.common import (
    BLOCK_POLICIES,
    STATIC_SETTINGS,
    ExperimentConfig,
    run_policy_grid,
)


def run(config: ExperimentConfig | None = None) -> list[dict]:
    """Return one row per algorithm with the median stabilisation slot per setting."""
    config = config or ExperimentConfig(runs=5, horizon_slots=1200)
    medians: dict[str, dict[str, float]] = {}
    grids = run_policy_grid(STATIC_SETTINGS, BLOCK_POLICIES, config)
    for setting_name, grid in grids.items():
        for policy in BLOCK_POLICIES:
            times = [time_to_stable(r) for r in grid[policy]]
            stabilised = [t for t in times if t is not None]
            medians.setdefault(policy, {})[setting_name] = (
                float(np.median(stabilised)) if stabilised else float("nan")
            )
    return [
        {
            "algorithm": policy,
            "setting1_median_slots": medians[policy]["setting1"],
            "setting2_median_slots": medians[policy]["setting2"],
        }
        for policy in BLOCK_POLICIES
    ]


def paper_config() -> ExperimentConfig:
    return ExperimentConfig.paper()
