"""Fig. 2 — average number of network switches per algorithm, settings 1 and 2.

The paper reports that EXP3 and Full Information switch hundreds of times over
5 hours while the block-based algorithms switch ~80 % less, with Smart EXP3
paying a moderate premium over Smart EXP3 w/o Reset for its resets and Greedy
switching only a handful of times.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ALL_POLICIES,
    STATIC_SETTINGS,
    ExperimentConfig,
    run_policy_grid,
)

#: Centralized and Fixed Random never switch, so the paper omits them in Fig. 2.
FIG2_POLICIES = tuple(p for p in ALL_POLICIES if p not in ("centralized", "fixed_random"))


def run(config: ExperimentConfig | None = None) -> list[dict]:
    """Return one row per algorithm with mean/std switches in both settings.

    Runs stream through the ``summary`` reducer, so only per-run scalar rows
    are kept (and shipped across the pool when ``config.workers`` is set).
    """
    config = config or ExperimentConfig.default()
    rows: list[dict] = []
    per_setting: dict[str, dict[str, tuple[float, float]]] = {}
    grids = run_policy_grid(STATIC_SETTINGS, FIG2_POLICIES, config, reduce="summary")
    for setting_name, grid in grids.items():
        for policy, summaries in grid.items():
            switches = summaries.values("mean_switches")
            per_setting.setdefault(policy, {})[setting_name] = (
                float(np.mean(switches)),
                float(np.std(switches)),
            )
    for policy in FIG2_POLICIES:
        entry = per_setting[policy]
        rows.append(
            {
                "algorithm": policy,
                "setting1_switches": entry["setting1"][0],
                "setting1_std": entry["setting1"][1],
                "setting2_switches": entry["setting2"][0],
                "setting2_std": entry["setting2"][1],
            }
        )
    return rows


def paper_config() -> ExperimentConfig:
    """Full-scale configuration used by the paper (500 runs × 1200 slots)."""
    return ExperimentConfig.paper()
