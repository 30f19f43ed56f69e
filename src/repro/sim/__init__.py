"""Simulation substrate: environment, delays, scenarios, backends, runner.

The paper evaluates Smart EXP3 with a SimPy-based slotted simulator.  This
subpackage re-implements that substrate from scratch:

* :mod:`repro.sim.delay` — switching-delay models (Johnson SU / Student's t).
* :mod:`repro.sim.mobility` — service areas and coverage maps (Fig. 1).
* :mod:`repro.sim.environment` — the slotted wireless environment.
* :mod:`repro.sim.scenario` — declarative scenario descriptions + the paper's
  settings 1–3 and the dynamic variants.
* :mod:`repro.sim.metrics` — per-run result containers.
* :mod:`repro.sim.backends` — pluggable slot-execution backends (the
  reference event backend, a plain loop over slot indices, and the batched
  vectorized backend).
* :mod:`repro.sim.sharded` — the sharded population engine: device-axis
  sharding with a per-slot occupancy all-reduce for million-device runs.
* :mod:`repro.sim.runner` — single-run and multi-run simulation drivers with
  backend selection, process-pool parallelism and device-axis sharding.
* :mod:`repro.sim.traces` — synthetic WiFi/cellular trace library and the
  trace-driven single-device simulator (Section VI-B substitution).
* :mod:`repro.sim.testbed` — noisy testbed scenarios (Section VII-A substitution).
* :mod:`repro.sim.wild` — in-the-wild download race (Section VII-B substitution).
"""

from repro.sim.backends import (
    DEFAULT_BACKEND,
    SlotExecutor,
    SlotRecorder,
    available_backends,
    get_backend,
    register_backend,
)
from repro.sim.delay import ConstantDelayModel, DelayModel, EmpiricalDelayModel, NoDelayModel
from repro.sim.environment import WirelessEnvironment
from repro.sim.metrics import DeviceAxisView, SimulationResult
from repro.sim.mobility import (
    CoverageMap,
    NetworkDynamics,
    ServiceArea,
    random_waypoint_schedule,
)
from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import (
    ChurnModel,
    DeviceSpec,
    PoissonChurn,
    Scenario,
    TraceChurn,
    churn_scenario,
    dynamic_join_leave_scenario,
    dynamic_leave_scenario,
    mobility_scenario,
    per_slot_churn_scenario,
    setting1_scenario,
    setting2_scenario,
)

__all__ = [
    "ChurnModel",
    "ConstantDelayModel",
    "CoverageMap",
    "DEFAULT_BACKEND",
    "DelayModel",
    "DeviceAxisView",
    "DeviceSpec",
    "EmpiricalDelayModel",
    "NetworkDynamics",
    "NoDelayModel",
    "PoissonChurn",
    "Scenario",
    "ServiceArea",
    "SimulationResult",
    "SlotExecutor",
    "SlotRecorder",
    "TraceChurn",
    "WirelessEnvironment",
    "available_backends",
    "churn_scenario",
    "get_backend",
    "per_slot_churn_scenario",
    "random_waypoint_schedule",
    "register_backend",
    "dynamic_join_leave_scenario",
    "dynamic_leave_scenario",
    "mobility_scenario",
    "run_many",
    "run_simulation",
    "setting1_scenario",
    "setting2_scenario",
]
