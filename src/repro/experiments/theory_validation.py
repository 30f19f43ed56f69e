"""Validation of Theorems 2 and 3: empirical switches / regret vs the bounds.

Not a figure of the paper, but the natural ablation: for a single device we
compare the measured number of network switches against the Theorem-2 bound for
several (k, β) combinations, and the measured weak regret against the Theorem-3
bound, confirming both bounds hold with room to spare.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentConfig, run_with_config
from repro.sim.scenario import scalability_scenario
from repro.theory.bounds import expected_switches_bound, weak_regret_bound
from repro.theory.regret import empirical_switches, empirical_weak_regret


def run(
    config: ExperimentConfig | None = None,
    network_counts: tuple[int, ...] = (2, 3, 5),
    betas: tuple[float, ...] = (0.1, 0.3),
) -> list[dict]:
    """Return one row per (k, β): empirical vs bounded switches and regret."""
    config = config or ExperimentConfig(runs=3, horizon_slots=400)
    horizon = config.horizon_slots or 400
    rows: list[dict] = []
    for k in network_counts:
        for beta in betas:
            scenario = scalability_scenario(
                num_devices=1,
                num_networks=k,
                policy="smart_exp3",
                horizon_slots=horizon,
                policy_kwargs={"beta": beta},
            )
            results = run_with_config(scenario, config)
            switches = [empirical_switches(r, 0) for r in results]
            regrets = [empirical_weak_regret(r, 0) for r in results]
            switch_bound = expected_switches_bound(
                horizon_slots=horizon, num_networks=k, beta=beta
            )
            regret_bound_value = weak_regret_bound(
                horizon_slots=horizon,
                num_networks=k,
                beta=beta,
                gamma=0.1,
                max_block_length=int(np.ceil((1 + beta) ** 40)),
                gain_best_per_period=float(horizon),
                mean_delay_s=3.0,
                mean_gain=1.0,
            )
            rows.append(
                {
                    "num_networks": k,
                    "beta": beta,
                    "mean_switches": float(np.mean(switches)),
                    "switch_bound": float(switch_bound),
                    "switches_within_bound": bool(np.max(switches) <= switch_bound),
                    "mean_weak_regret_mb": float(np.mean(regrets)),
                    "regret_bound": float(regret_bound_value),
                }
            )
    return rows


def paper_config() -> ExperimentConfig:
    return ExperimentConfig(runs=50, horizon_slots=1200)
