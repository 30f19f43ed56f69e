"""Table V — (mean) per-run median cumulative download (GB) per algorithm.

The paper reports ~3.5 GB for the block-based algorithms and the Centralized
baseline, ~2.7–2.9 GB for EXP3 / Full Information, and in setting 1 a lower
value for Greedy (it abandons the 4 Mbps network).
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
    """Return one row per algorithm with the mean per-run median download (GB).

    Per-run medians come out of the ``downloads`` reducer applied where each
    run executes, so only scalar rows cross the process pool.
    """
    config = config or ExperimentConfig.default()
    downloads: dict[str, dict[str, float]] = {}
    grids = run_policy_grid(STATIC_SETTINGS, ALL_POLICIES, config, reduce="downloads")
    for setting_name, grid in grids.items():
        for policy in ALL_POLICIES:
            values = grid[policy].values("median_download_mb") / 1000.0
            downloads.setdefault(policy, {})[setting_name] = float(np.mean(values))
    return [
        {
            "algorithm": policy,
            "setting1_download_gb": downloads[policy]["setting1"],
            "setting2_download_gb": downloads[policy]["setting2"],
        }
        for policy in ALL_POLICIES
    ]


def paper_config() -> ExperimentConfig:
    return ExperimentConfig.paper()
