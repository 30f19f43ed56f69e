"""Churn stress — policy behaviour under generative dynamic scenarios.

The paper's dynamic settings (Figs. 7–10) probe three hand-built events: one
arrival wave, one departure wave, one mobility pattern.  This driver samples
whole *families* of dynamic scenarios from the generative layer
(:func:`repro.sim.scenario.churn_scenario`): Poisson arrivals with
exponential lifetimes, a random-waypoint fraction moving between service
areas, and (optionally) a flapping network that drops in and out of coverage.
It reports, per policy, the streamed headline metrics
(:class:`~repro.analysis.reducers.SummaryReducer` rows reduced in-worker) plus
the scenario's realised churn intensity — how many joins/leaves/visibility
events the topology plan actually carries.
"""

from __future__ import annotations

from repro.analysis.reducers import RunSummaries
from repro.experiments.common import (
    DYNAMIC_POLICIES,
    ExperimentConfig,
    run_with_config,
)
from repro.sim.backends.base import TopologyPlan
from repro.sim.mobility import NetworkDynamics
from repro.sim.scenario import (
    DEFAULT_HORIZON_SLOTS,
    PoissonChurn,
    churn_scenario,
)

#: Two service areas over the paper's setting-1 bandwidths: the cellular
#: network (id 2) covers both, one WiFi network is area-local on each side.
DEFAULT_AREAS = {"campus": (0, 2), "dorm": (1, 2)}


def churn_profile(scenario) -> dict[str, int]:
    """Realised topology intensity of a scenario: event counts from the plan."""
    devices = sorted(
        (spec.device for spec in scenario.device_specs),
        key=lambda device: device.device_id,
    )
    plan = TopologyPlan(scenario, devices, scenario.horizon_slots)
    joins = sum(len(ev.joins) for ev in plan.events.values())
    leaves = sum(len(ev.leaves) for ev in plan.events.values())
    visibility = sum(len(ev.visibility) for ev in plan.events.values())
    return {
        "event_slots": len(plan.event_slots),
        "joins": joins,
        "leaves": leaves,
        "visibility_changes": visibility,
        "coverage_eras": len(plan.era_starts),
    }


def run(
    config: ExperimentConfig | None = None,
    policies: tuple[str, ...] = DYNAMIC_POLICIES,
    num_devices: int = 30,
    arrival_rate_per_slot: float = 0.25,
    mean_lifetime_slots: float = 150.0,
    initial_fraction: float = 0.3,
    mobility_fraction: float = 0.25,
    flapping: bool = True,
    scenario_seed: int = 7,
) -> dict:
    """Per-policy summary metrics on one generated churn scenario family."""
    config = config or ExperimentConfig(runs=3)
    horizon = config.horizon_slots or DEFAULT_HORIZON_SLOTS
    churn = PoissonChurn(
        arrival_rate_per_slot=arrival_rate_per_slot,
        mean_lifetime_slots=mean_lifetime_slots,
        initial_fraction=initial_fraction,
    )
    dynamics = (
        NetworkDynamics(
            flapping_networks=(0,),
            mean_up_slots=max(horizon / 6.0, 2.0),
            mean_outage_slots=max(horizon / 40.0, 1.0),
        )
        if flapping
        else None
    )
    output: dict = {"policies": {}, "scenario": {}}
    for policy in policies:
        scenario = churn_scenario(
            num_devices=num_devices,
            policy=policy,
            horizon_slots=horizon,
            churn=churn,
            areas=DEFAULT_AREAS,
            mobility_fraction=mobility_fraction,
            dynamics=dynamics,
            seed=scenario_seed,
        )
        if not output["scenario"]:
            output["scenario"] = {
                "name": scenario.name,
                "num_devices": num_devices,
                "horizon_slots": horizon,
                **churn_profile(scenario),
            }
        summaries: RunSummaries = run_with_config(
            scenario, config, reduce="summary"
        )
        output["policies"][policy] = {
            "mean_switches": summaries.mean("mean_switches"),
            "median_download_mb": summaries.mean("median_download_mb"),
            "total_download_gb": summaries.mean("total_download_gb"),
            "jains_index": summaries.mean("jains_index"),
            "total_switches": summaries.mean("total_switches"),
        }
    return output


def paper_config() -> ExperimentConfig:
    """Full-scale configuration matching the paper's run counts."""
    return ExperimentConfig(runs=500, horizon_slots=None)
