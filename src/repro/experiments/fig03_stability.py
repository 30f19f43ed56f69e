"""Fig. 3 — percentage of runs reaching a stable state, and the type of state.

Compares Block EXP3, Hybrid Block EXP3 and Smart EXP3 w/o Reset (the variants
for which Definition 2 applies): the paper shows Block EXP3 stabilising in
under half of the runs and rarely at Nash equilibrium, while Smart EXP3 w/o
Reset stabilises at the equilibrium in essentially every run.
"""

from __future__ import annotations

from repro.analysis.stability import stability_report
from repro.experiments.common import (
    BLOCK_POLICIES,
    STATIC_SETTINGS,
    ExperimentConfig,
    run_policy_grid,
)


def run(config: ExperimentConfig | None = None) -> list[dict]:
    """Return one row per algorithm and setting with stable-state percentages."""
    config = config or ExperimentConfig(runs=5, horizon_slots=1200)
    rows: list[dict] = []
    grids = run_policy_grid(STATIC_SETTINGS, BLOCK_POLICIES, config)
    for setting_name, grid in grids.items():
        for policy in BLOCK_POLICIES:
            reports = [stability_report(r) for r in grid[policy]]
            total = len(reports)
            stable_nash = sum(1 for rep in reports if rep.stable and rep.at_nash_equilibrium)
            stable_other = sum(1 for rep in reports if rep.stable_at_other_state)
            rows.append(
                {
                    "algorithm": policy,
                    "setting": setting_name,
                    "pct_stable_at_nash": 100.0 * stable_nash / total,
                    "pct_stable_other_state": 100.0 * stable_other / total,
                    "pct_not_stable": 100.0 * (total - stable_nash - stable_other) / total,
                }
            )
    return rows


def paper_config() -> ExperimentConfig:
    return ExperimentConfig.paper()
