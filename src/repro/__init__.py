"""Reproduction of "Shrewd Selection Speeds Surfing: Use Smart EXP3!" (ICDCS 2018).

The package provides:

* :mod:`repro.core` — the Smart EXP3 algorithm (the paper's contribution).
* :mod:`repro.algorithms` — EXP3 and every comparison policy of Tables II/III.
* :mod:`repro.game` — the wireless network selection congestion game.
* :mod:`repro.sim` — the simulation substrate (execution backends,
  environments, delay models, traces, testbed, in-the-wild download).
* :mod:`repro.analysis` — the evaluation metrics (stability, distance to Nash
  equilibrium, fairness).
* :mod:`repro.theory` — the bounds of Theorems 2 and 3 and the replicator
  dynamics check.
* :mod:`repro.experiments` — one driver per table/figure of the evaluation.

Quickstart::

    from repro import setting1_scenario, run_simulation, stability_report

    scenario = setting1_scenario(policy="smart_exp3", horizon_slots=400)
    result = run_simulation(scenario, seed=0)
    print(result.summary())
    print(stability_report(result))
"""

from repro.algorithms import available_policies, create_policy
from repro.analysis import (
    distance_to_nash_series,
    download_std_mb,
    stability_report,
    time_to_stable,
)
from repro.core import SmartEXP3Config, SmartEXP3Policy
from repro.game import Network, NetworkType, distance_to_nash, nash_equilibrium_allocation
from repro.sim import (
    NetworkDynamics,
    PoissonChurn,
    Scenario,
    SimulationResult,
    TraceChurn,
    available_backends,
    churn_scenario,
    dynamic_join_leave_scenario,
    dynamic_leave_scenario,
    get_backend,
    mobility_scenario,
    per_slot_churn_scenario,
    register_backend,
    run_many,
    run_simulation,
    setting1_scenario,
    setting2_scenario,
)
from repro.theory import expected_switches_bound, weak_regret_bound

__version__ = "1.0.0"

__all__ = [
    "Network",
    "NetworkDynamics",
    "NetworkType",
    "PoissonChurn",
    "Scenario",
    "SimulationResult",
    "SmartEXP3Config",
    "SmartEXP3Policy",
    "TraceChurn",
    "available_backends",
    "available_policies",
    "churn_scenario",
    "create_policy",
    "get_backend",
    "per_slot_churn_scenario",
    "register_backend",
    "distance_to_nash",
    "distance_to_nash_series",
    "download_std_mb",
    "dynamic_join_leave_scenario",
    "dynamic_leave_scenario",
    "expected_switches_bound",
    "mobility_scenario",
    "nash_equilibrium_allocation",
    "run_many",
    "run_simulation",
    "setting1_scenario",
    "setting2_scenario",
    "stability_report",
    "time_to_stable",
    "weak_regret_bound",
    "__version__",
]
