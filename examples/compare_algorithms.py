#!/usr/bin/env python3
"""Compare Smart EXP3 against every baseline of the paper on both static settings.

This is a miniature version of Figs. 2/5 and Table V: for each algorithm we run
the same scenario a few times and report the average number of switches, the
median cumulative download and the fairness (std-dev of downloads).

The whole (setting x algorithm) grid is one ``run_policy_grid`` call on the
vectorized backend, so every run of both settings advances in one engine.

Run with:  python examples/compare_algorithms.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.aggregate import per_run_median_download_gb
from repro.analysis.fairness import download_std_mb
from repro.analysis.reporting import format_table
from repro.experiments.common import (
    ALL_POLICIES,
    STATIC_SETTINGS,
    ExperimentConfig,
    run_policy_grid,
)

CONFIG = ExperimentConfig(runs=3, horizon_slots=600)
TITLES = {
    "setting1": "Setting 1 (4 / 7 / 22 Mbps)",
    "setting2": "Setting 2 (11 / 11 / 11 Mbps)",
}


def summarize(grid: dict) -> list[dict]:
    """One row per algorithm: mean switches, median download and fairness."""
    return [
        {
            "algorithm": policy,
            "switches": float(np.mean([r.mean_switches_per_device() for r in results])),
            "download_gb": float(np.mean([per_run_median_download_gb(r) for r in results])),
            "fairness_std_mb": float(np.mean([download_std_mb(r) for r in results])),
        }
        for policy, results in grid.items()
    ]


def main() -> None:
    grids = run_policy_grid(STATIC_SETTINGS, ALL_POLICIES, CONFIG)
    for setting, grid in grids.items():
        rows = summarize(grid)
        title = f"{TITLES[setting]} — {CONFIG.runs} runs x {CONFIG.horizon_slots} slots"
        print()
        print(format_table(rows, title=title))
        best = min(rows, key=lambda row: row["fairness_std_mb"])
        print(f"fairest algorithm: {best['algorithm']}")


if __name__ == "__main__":
    main()
