"""Fig. 5 — fairness: average per-run standard deviation of device downloads (MB).

Lower is fairer.  The paper finds EXP3, Smart EXP3 and Full Information the
fairest; Greedy and Fixed Random the least fair (Smart EXP3's std-dev is 80 %
and 55 % below Greedy's in settings 1 and 2).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ALL_POLICIES,
    STATIC_SETTINGS,
    ExperimentConfig,
    run_policy_grid,
)


def run(config: ExperimentConfig | None = None) -> list[dict]:
    """Return one row per algorithm with the mean per-run download std-dev (MB).

    Per-run fairness scalars come out of the ``summary`` reducer (one
    vectorized download expression per run, reduced where the run executes).
    """
    config = config or ExperimentConfig.default()
    stats: dict[str, dict[str, tuple[float, float]]] = {}
    grids = run_policy_grid(STATIC_SETTINGS, ALL_POLICIES, config, reduce="summary")
    for setting_name, grid in grids.items():
        for policy in ALL_POLICIES:
            stats.setdefault(policy, {})[setting_name] = (
                float(np.mean(grid[policy].values("std_download_mb"))),
                float(np.mean(grid[policy].values("jains_index"))),
            )
    return [
        {
            "algorithm": policy,
            "setting1_std_mb": stats[policy]["setting1"][0],
            "setting1_jains_index": stats[policy]["setting1"][1],
            "setting2_std_mb": stats[policy]["setting2"][0],
            "setting2_jains_index": stats[policy]["setting2"][1],
        }
        for policy in ALL_POLICIES
    ]


def paper_config() -> ExperimentConfig:
    return ExperimentConfig.paper()
