"""Fig. 10 — switches of devices that stay throughout, static vs dynamic settings.

The paper reports that Smart EXP3 devices present for the whole run switch a
comparable number of times (~64–68) whether the setting is static or dynamic,
with moving devices switching somewhat more (~102) because discovering new
networks and losing the preferred one both trigger resets.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentConfig, run_scenarios
from repro.sim.scenario import (
    Scenario,
    dynamic_join_leave_scenario,
    dynamic_leave_scenario,
    mobility_scenario,
    setting1_scenario,
    setting2_scenario,
)


def run(config: ExperimentConfig | None = None, policy: str = "smart_exp3") -> list[dict]:
    """Return the mean switch count of persistent devices in every setting.

    Each scenario is simulated once, all of them in one run loop; the
    mobility scenario's runs serve both of its device groups.
    """
    config = config or ExperimentConfig(runs=3, horizon_slots=None)
    rows: list[dict] = []

    def maybe_shorten(scenario: Scenario) -> Scenario:
        if config.horizon_slots is not None and config.horizon_slots >= scenario.horizon_slots:
            return scenario.with_horizon(config.horizon_slots)
        return scenario

    static1 = maybe_shorten(setting1_scenario(policy=policy))
    static2 = maybe_shorten(setting2_scenario(policy=policy))
    join = maybe_shorten(dynamic_join_leave_scenario(policy=policy))
    leave = maybe_shorten(dynamic_leave_scenario(policy=policy))
    mobile = maybe_shorten(mobility_scenario(policy=policy))

    all_ids_1 = tuple(spec.device.device_id for spec in static1.device_specs)
    all_ids_2 = tuple(spec.device.device_id for spec in static2.device_specs)
    join_groups = {g.name: g.device_ids for g in join.device_groups}
    leave_groups = {g.name: g.device_ids for g in leave.device_groups}
    mobile_groups = {g.name: g.device_ids for g in mobile.device_groups}
    moving_ids = mobile_groups["moving (1-8)"]
    static_mobile_ids = tuple(
        device_id
        for name, ids in mobile_groups.items()
        if name != "moving (1-8)"
        for device_id in ids
    )

    results = run_scenarios(
        {"static1": static1, "static2": static2, "join": join, "leave": leave, "mobile": mobile},
        config,
    )
    cases = [
        ("static setting 1 (20 devices)", "static1", all_ids_1),
        ("static setting 2 (20 devices)", "static2", all_ids_2),
        ("dynamic join/leave (11 persistent devices)", "join", join_groups["persistent"]),
        ("dynamic leave (4 persistent devices)", "leave", leave_groups["stayers"]),
        ("mobility (8 moving devices)", "mobile", moving_ids),
        ("mobility (other 12 devices)", "mobile", static_mobile_ids),
    ]
    for label, key, device_ids in cases:
        values = [r.mean_switches_per_device(device_ids) for r in results[key]]
        rows.append(
            {
                "setting": label,
                "mean_switches": float(np.mean(values)),
                "std_switches": float(np.std(values)),
            }
        )
    return rows


def paper_config() -> ExperimentConfig:
    return ExperimentConfig(runs=500, horizon_slots=None)
