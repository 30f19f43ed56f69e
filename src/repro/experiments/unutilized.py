"""Unutilized resources (Section VI-A text).

Of the 74.25 GB offered over 1200 slots in each setting, Greedy loses ≈8 GB in
setting 1 (most devices write off the 4 Mbps network after exploring it while
congested — a "tragedy of the commons") but utilises everything in setting 2;
the other algorithms keep all three networks in use in both settings.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fairness import total_available_gb, unutilized_bandwidth_gb
from repro.experiments.common import STATIC_SETTINGS, ExperimentConfig, run_policy_grid

POLICIES = ("greedy", "smart_exp3", "smart_exp3_no_reset", "exp3", "centralized")


def run(config: ExperimentConfig | None = None) -> list[dict]:
    """Return one row per algorithm and setting with mean unutilized GB."""
    config = config or ExperimentConfig.default()
    rows: list[dict] = []
    grids = run_policy_grid(STATIC_SETTINGS, POLICIES, config)
    for setting_name, grid in grids.items():
        for policy in POLICIES:
            results = grid[policy]
            unused = [unutilized_bandwidth_gb(r) for r in results]
            rows.append(
                {
                    "algorithm": policy,
                    "setting": setting_name,
                    "total_available_gb": float(np.mean([total_available_gb(r) for r in results])),
                    "unutilized_gb": float(np.mean(unused)),
                }
            )
    return rows


def paper_config() -> ExperimentConfig:
    return ExperimentConfig.paper()
