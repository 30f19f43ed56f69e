"""Declarative simulation scenarios: the paper's settings 1–3 and a
generative dynamic-scenario layer.

A :class:`Scenario` fully describes an evaluation setting: networks, devices
(with their policies, presence windows and mobility), the coverage map, gain and
delay models, and the horizon.  The factory functions in the middle of this
module build the exact configurations used in Section VI of the paper:

* :func:`setting1_scenario` — 20 devices, 3 networks of 4 / 7 / 22 Mbps.
* :func:`setting2_scenario` — 20 devices, 3 networks of 11 Mbps each.
* :func:`dynamic_join_leave_scenario` — 9 devices join at t=401 and leave after t=800.
* :func:`dynamic_leave_scenario` — 16 devices leave after t=600.
* :func:`mobility_scenario` — 5 networks, 3 service areas, 8 devices moving.
* :func:`mixed_policy_scenario` — robustness settings mixing Smart EXP3 and Greedy.

Beyond those hand-built settings, the generative layer at the bottom samples
whole scenario families from compact models (all from a *construction* seed,
independent of the run seeds, so a generated scenario is a fixed object that
every backend executes bit-identically):

* :class:`PoissonChurn` — Poisson arrivals with exponential lifetimes.
* :class:`TraceChurn` — explicit (join, leave) presence windows, e.g. from a
  measured trace; :func:`per_slot_churn_windows` builds the worst-case tiling
  where *every* slot carries a join or a departure.
* :func:`churn_scenario` — combines a churn model with optional
  random-waypoint mobility (:func:`repro.sim.mobility.random_waypoint_schedule`)
  and network dynamics (:class:`repro.sim.mobility.NetworkDynamics`: outage
  windows) into one scenario.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.game.device import Device, DeviceGroup
from repro.game.gain import EqualShareModel, GainModel
from repro.game.network import Network, NetworkType, make_networks
from repro.sim.delay import DelayModel, EmpiricalDelayModel
from repro.sim.mobility import CoverageMap, NetworkDynamics, random_waypoint_schedule

#: Slot duration used throughout the paper (Section V).
DEFAULT_SLOT_DURATION_S = 15.0
#: Horizon of the static and dynamic simulations: 5 simulated hours.
DEFAULT_HORIZON_SLOTS = 1200


@dataclass
class DeviceSpec:
    """A device together with the policy it runs.

    ``policy`` is a name resolved through :mod:`repro.algorithms.registry`,
    which keeps scenarios declarative and serialisable; ``policy_kwargs`` are
    forwarded to the policy constructor.
    """

    device: Device
    policy: str
    policy_kwargs: dict = field(default_factory=dict)


@dataclass
class Scenario:
    """A complete, reproducible description of one simulation setting."""

    name: str
    networks: list[Network]
    device_specs: list[DeviceSpec]
    coverage: CoverageMap
    gain_model: GainModel = field(default_factory=EqualShareModel)
    delay_model: DelayModel = field(default_factory=EmpiricalDelayModel)
    horizon_slots: int = DEFAULT_HORIZON_SLOTS
    slot_duration_s: float = DEFAULT_SLOT_DURATION_S
    max_rate_mbps: float | None = None
    device_groups: list[DeviceGroup] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.networks:
            raise ValueError("a scenario requires at least one network")
        if not self.device_specs:
            raise ValueError("a scenario requires at least one device")
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")
        if self.slot_duration_s <= 0:
            raise ValueError("slot_duration_s must be positive")
        network_ids = {n.network_id for n in self.networks}
        if len(network_ids) != len(self.networks):
            raise ValueError("network ids must be unique")
        covered = self.coverage.all_network_ids()
        if not covered <= network_ids:
            raise ValueError(
                f"coverage references unknown networks: {sorted(covered - network_ids)}"
            )
        device_ids = [spec.device.device_id for spec in self.device_specs]
        if len(set(device_ids)) != len(device_ids):
            raise ValueError("device ids must be unique")
        area_names = set(self.coverage.areas)
        for spec in self.device_specs:
            device = spec.device
            if device.join_slot > self.horizon_slots:
                raise ValueError(
                    f"device {device.device_id} joins at slot "
                    f"{device.join_slot}, after the horizon "
                    f"({self.horizon_slots})"
                )
            if (
                device.leave_slot is not None
                and device.leave_slot < device.join_slot
            ):
                # Device.__post_init__ enforces this too; guard here as well
                # so Device subclasses cannot smuggle an inverted window in.
                raise ValueError(
                    f"device {device.device_id} leaves at slot "
                    f"{device.leave_slot}, before joining at "
                    f"{device.join_slot}"
                )
            unknown = {
                area
                for area in device.area_schedule.values()
                if area not in area_names
            }
            if unknown:
                raise ValueError(
                    f"device {device.device_id} area_schedule references "
                    f"unknown service areas: {sorted(unknown)}"
                )
        self.coverage.validate_outages(self.horizon_slots)

    @property
    def network_map(self) -> dict[int, Network]:
        return {n.network_id: n for n in self.networks}

    @property
    def num_devices(self) -> int:
        return len(self.device_specs)

    @property
    def scale_reference_mbps(self) -> float:
        """Bit-rate used to scale gains into [0, 1]."""
        if self.max_rate_mbps is not None:
            return self.max_rate_mbps
        return max(n.bandwidth_mbps for n in self.networks)

    @property
    def total_bandwidth_mbps(self) -> float:
        return sum(n.bandwidth_mbps for n in self.networks)

    def with_policy(self, policy: str, policy_kwargs: Mapping | None = None) -> "Scenario":
        """Copy of this scenario with every device running ``policy``."""
        kwargs = dict(policy_kwargs or {})
        new_specs = [
            DeviceSpec(device=spec.device, policy=policy, policy_kwargs=dict(kwargs))
            for spec in self.device_specs
        ]
        return replace(self, device_specs=new_specs, name=f"{self.name}[{policy}]")

    def with_horizon(self, horizon_slots: int) -> "Scenario":
        """Copy with a new horizon.

        The copy re-runs the full validation, so shrinking the horizon below
        some device's ``join_slot`` (its presence window would fall entirely
        outside the run) is rejected rather than silently dropping the device.
        """
        return replace(self, horizon_slots=horizon_slots)


def _uniform_specs(devices: Sequence[Device], policy: str, policy_kwargs: Mapping | None) -> list[DeviceSpec]:
    kwargs = dict(policy_kwargs or {})
    return [DeviceSpec(device=d, policy=policy, policy_kwargs=dict(kwargs)) for d in devices]


def _static_scenario(
    name: str,
    bandwidths: Sequence[float],
    num_devices: int,
    policy: str,
    policy_kwargs: Mapping | None,
    horizon_slots: int,
) -> Scenario:
    networks = make_networks(list(bandwidths))
    devices = [Device(device_id=i) for i in range(num_devices)]
    coverage = CoverageMap.single_area([n.network_id for n in networks])
    return Scenario(
        name=name,
        networks=networks,
        device_specs=_uniform_specs(devices, policy, policy_kwargs),
        coverage=coverage,
        horizon_slots=horizon_slots,
    )


def setting1_scenario(
    policy: str = "smart_exp3",
    num_devices: int = 20,
    horizon_slots: int = DEFAULT_HORIZON_SLOTS,
    policy_kwargs: Mapping | None = None,
) -> Scenario:
    """Setting 1 of Section VI-A: 3 networks at 4, 7 and 22 Mbps, 20 devices.

    The non-uniform rates yield a unique Nash equilibrium (2 / 4 / 14 devices).
    """
    return _static_scenario(
        "setting1", (4.0, 7.0, 22.0), num_devices, policy, policy_kwargs, horizon_slots
    )


def setting2_scenario(
    policy: str = "smart_exp3",
    num_devices: int = 20,
    horizon_slots: int = DEFAULT_HORIZON_SLOTS,
    policy_kwargs: Mapping | None = None,
) -> Scenario:
    """Setting 2 of Section VI-A: 3 networks of 11 Mbps each, 20 devices."""
    return _static_scenario(
        "setting2", (11.0, 11.0, 11.0), num_devices, policy, policy_kwargs, horizon_slots
    )


def scalability_scenario(
    num_devices: int,
    num_networks: int,
    policy: str = "smart_exp3_no_reset",
    horizon_slots: int = 8640,
    total_bandwidth_mbps: float = 33.0,
    policy_kwargs: Mapping | None = None,
) -> Scenario:
    """Scalability setting of Fig. 6: vary devices and networks, 36 simulated hours.

    The aggregate bandwidth is kept at 33 Mbps (as in settings 1 and 2) and
    split across ``num_networks`` networks with a spread of rates (an arithmetic
    progression) so that equilibria are non-trivial.
    """
    if num_networks < 1:
        raise ValueError("num_networks must be >= 1")
    weights = [float(i + 1) for i in range(num_networks)]
    scale = total_bandwidth_mbps / sum(weights)
    bandwidths = [round(w * scale, 3) for w in weights]
    return _static_scenario(
        f"scalability_d{num_devices}_n{num_networks}",
        bandwidths,
        num_devices,
        policy,
        policy_kwargs,
        horizon_slots,
    )


def dynamic_join_leave_scenario(
    policy: str = "smart_exp3",
    horizon_slots: int = DEFAULT_HORIZON_SLOTS,
    policy_kwargs: Mapping | None = None,
) -> Scenario:
    """Dynamic setting 1 (Fig. 7): 9 of 20 devices join at t=401, leave after t=800."""
    networks = make_networks([4.0, 7.0, 22.0])
    persistent = [Device(device_id=i) for i in range(11)]
    transient = [
        Device(device_id=11 + i, join_slot=401, leave_slot=800) for i in range(9)
    ]
    devices = persistent + transient
    coverage = CoverageMap.single_area([n.network_id for n in networks])
    groups = [
        DeviceGroup(name="persistent", device_ids=tuple(d.device_id for d in persistent)),
        DeviceGroup(name="transient", device_ids=tuple(d.device_id for d in transient)),
    ]
    return Scenario(
        name="dynamic_join_leave",
        networks=networks,
        device_specs=_uniform_specs(devices, policy, policy_kwargs),
        coverage=coverage,
        horizon_slots=horizon_slots,
        device_groups=groups,
    )


def dynamic_leave_scenario(
    policy: str = "smart_exp3",
    horizon_slots: int = DEFAULT_HORIZON_SLOTS,
    policy_kwargs: Mapping | None = None,
) -> Scenario:
    """Dynamic setting 2 (Fig. 8): 16 of 20 devices leave after t=600."""
    networks = make_networks([4.0, 7.0, 22.0])
    stayers = [Device(device_id=i) for i in range(4)]
    leavers = [Device(device_id=4 + i, leave_slot=600) for i in range(16)]
    devices = stayers + leavers
    coverage = CoverageMap.single_area([n.network_id for n in networks])
    groups = [
        DeviceGroup(name="stayers", device_ids=tuple(d.device_id for d in stayers)),
        DeviceGroup(name="leavers", device_ids=tuple(d.device_id for d in leavers)),
    ]
    return Scenario(
        name="dynamic_leave",
        networks=networks,
        device_specs=_uniform_specs(devices, policy, policy_kwargs),
        coverage=coverage,
        horizon_slots=horizon_slots,
        device_groups=groups,
    )


def mobility_scenario(
    policy: str = "smart_exp3",
    horizon_slots: int = DEFAULT_HORIZON_SLOTS,
    policy_kwargs: Mapping | None = None,
) -> Scenario:
    """Dynamic setting 3 (Fig. 9): devices moving across three service areas.

    Networks 1–5 have bandwidths 16, 14, 22, 7 and 4 Mbps.  Network 3 is the
    cellular network visible from every area; the WLANs cover individual areas
    as in Fig. 1.  Devices 1–10 start at the food court, 11–15 at the study
    area and 16–20 at the bus stop; devices 1–8 move to the study area at
    t=401 and to the bus stop at t=801.
    """
    networks = [
        Network(network_id=1, bandwidth_mbps=16.0, network_type=NetworkType.WIFI),
        Network(network_id=2, bandwidth_mbps=14.0, network_type=NetworkType.WIFI),
        Network(network_id=3, bandwidth_mbps=22.0, network_type=NetworkType.CELLULAR),
        Network(network_id=4, bandwidth_mbps=7.0, network_type=NetworkType.WIFI),
        Network(network_id=5, bandwidth_mbps=4.0, network_type=NetworkType.WIFI),
    ]
    coverage = CoverageMap.from_area_networks(
        {
            "food_court": (2, 3, 4),
            "study_area": (1, 3),
            "bus_stop": (3, 4, 5),
        },
        default_area="food_court",
    )
    devices: list[Device] = []
    # Devices 1-8 (ids 1..8): food court -> study area (t=401) -> bus stop (t=801).
    for device_id in range(1, 9):
        devices.append(
            Device(
                device_id=device_id,
                area_schedule={1: "food_court", 401: "study_area", 801: "bus_stop"},
            )
        )
    # Devices 9-10: stay at the food court.
    for device_id in range(9, 11):
        devices.append(Device(device_id=device_id, area_schedule={1: "food_court"}))
    # Devices 11-15: study area.
    for device_id in range(11, 16):
        devices.append(Device(device_id=device_id, area_schedule={1: "study_area"}))
    # Devices 16-20: bus stop.
    for device_id in range(16, 21):
        devices.append(Device(device_id=device_id, area_schedule={1: "bus_stop"}))
    groups = [
        DeviceGroup(name="moving (1-8)", device_ids=tuple(range(1, 9))),
        DeviceGroup(name="food court (9-10)", device_ids=tuple(range(9, 11))),
        DeviceGroup(name="study area (11-15)", device_ids=tuple(range(11, 16))),
        DeviceGroup(name="bus stop (16-20)", device_ids=tuple(range(16, 21))),
    ]
    return Scenario(
        name="mobility",
        networks=networks,
        device_specs=_uniform_specs(devices, policy, policy_kwargs),
        coverage=coverage,
        horizon_slots=horizon_slots,
        device_groups=groups,
    )


def mixed_policy_scenario(
    policy_counts: Mapping[str, int],
    bandwidths: Sequence[float] = (4.0, 7.0, 22.0),
    horizon_slots: int = DEFAULT_HORIZON_SLOTS,
    name: str | None = None,
    policy_kwargs: Mapping[str, Mapping] | None = None,
) -> Scenario:
    """A static scenario where different devices run different policies.

    Used for the robustness experiments of Fig. 11 (e.g. ``{"smart_exp3": 19,
    "greedy": 1}``) and the controlled mixed experiment of Fig. 15.
    """
    if not policy_counts:
        raise ValueError("policy_counts must not be empty")
    kwargs_by_policy = {k: dict(v) for k, v in (policy_kwargs or {}).items()}
    networks = make_networks(list(bandwidths))
    coverage = CoverageMap.single_area([n.network_id for n in networks])
    specs: list[DeviceSpec] = []
    groups: list[DeviceGroup] = []
    device_id = 0
    for policy, count in policy_counts.items():
        if count < 0:
            raise ValueError(f"count for policy {policy!r} must be >= 0")
        ids = []
        for _ in range(count):
            specs.append(
                DeviceSpec(
                    device=Device(device_id=device_id),
                    policy=policy,
                    policy_kwargs=dict(kwargs_by_policy.get(policy, {})),
                )
            )
            ids.append(device_id)
            device_id += 1
        if ids:
            groups.append(DeviceGroup(name=policy, device_ids=tuple(ids)))
    scenario_name = name or "mixed_" + "_".join(
        f"{policy}{count}" for policy, count in policy_counts.items()
    )
    return Scenario(
        name=scenario_name,
        networks=networks,
        device_specs=specs,
        coverage=coverage,
        horizon_slots=horizon_slots,
        device_groups=groups,
    )


# --------------------------------------------------------------------------
# Generative dynamic-scenario layer


class ChurnModel(ABC):
    """Samples per-device presence windows (the churn side of a scenario)."""

    @abstractmethod
    def presence_windows(
        self, num_devices: int, horizon_slots: int, rng: np.random.Generator
    ) -> list[tuple[int, int | None]]:
        """One ``(join_slot, leave_slot)`` pair per device.

        ``leave_slot`` of ``None`` means the device stays until the end of
        the horizon.  Every returned ``join_slot`` must lie within the
        horizon (:class:`Scenario` validation enforces it).
        """


@dataclass(frozen=True)
class PoissonChurn(ChurnModel):
    """Poisson arrival process with exponential lifetimes.

    ``initial_fraction`` of the population is present from slot 1; the rest
    arrive with exponential inter-arrival times of mean
    ``1 / arrival_rate_per_slot``.  Every device stays for an exponential
    lifetime of mean ``mean_lifetime_slots`` (floored at one slot).  If the
    arrival process outruns the horizon before the requested population has
    arrived, the remaining devices are placed uniformly at random within the
    horizon so the population size always matches the request.
    """

    arrival_rate_per_slot: float = 0.2
    mean_lifetime_slots: float = 200.0
    initial_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.arrival_rate_per_slot <= 0:
            raise ValueError("arrival_rate_per_slot must be positive")
        if self.mean_lifetime_slots <= 0:
            raise ValueError("mean_lifetime_slots must be positive")
        if not 0.0 <= self.initial_fraction <= 1.0:
            raise ValueError("initial_fraction must be in [0, 1]")

    def presence_windows(
        self, num_devices: int, horizon_slots: int, rng: np.random.Generator
    ) -> list[tuple[int, int | None]]:
        initial = int(round(self.initial_fraction * num_devices))
        windows: list[tuple[int, int | None]] = []
        arrival = 1.0
        for index in range(num_devices):
            if index < initial:
                join = 1
            else:
                arrival += float(rng.exponential(1.0 / self.arrival_rate_per_slot))
                join = int(np.ceil(arrival))
                if join > horizon_slots:
                    join = int(rng.integers(1, horizon_slots + 1))
            lifetime = max(
                1, int(round(float(rng.exponential(self.mean_lifetime_slots))))
            )
            leave = join + lifetime - 1
            windows.append((join, None if leave >= horizon_slots else leave))
        return windows


@dataclass(frozen=True)
class TraceChurn(ChurnModel):
    """Trace-driven churn: explicit presence windows, cycled over the devices."""

    windows: tuple[tuple[int, int | None], ...]

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("TraceChurn requires at least one window")
        for join, leave in self.windows:
            if join < 1:
                raise ValueError(f"join slots are 1-based, got {join}")
            if leave is not None and leave < join:
                raise ValueError(
                    f"window ({join}, {leave}) ends before it starts"
                )

    def presence_windows(
        self, num_devices: int, horizon_slots: int, rng: np.random.Generator
    ) -> list[tuple[int, int | None]]:
        return [
            self.windows[index % len(self.windows)]
            for index in range(num_devices)
        ]


def per_slot_churn_windows(
    num_devices: int,
) -> tuple[list[tuple[int, int | None]], int]:
    """Presence windows where every slot carries a join or a departure.

    Half the population is persistent; the transient half joins one device
    per slot and later departs one device per slot, tiling the whole natural
    horizon (returned alongside the windows) with exactly one topology event
    per slot after the first.  This is the worst-case workload for any
    executor that special-cases topology changes.
    """
    if num_devices < 2:
        raise ValueError("per-slot churn needs at least 2 devices")
    transient = num_devices // 2
    horizon = 2 * transient + 1
    windows: list[tuple[int, int | None]] = [
        (1, None) for _ in range(num_devices - transient)
    ]
    windows.extend((2 + i, transient + 1 + i) for i in range(transient))
    return windows, horizon


def churn_scenario(
    num_devices: int = 100,
    policy: str = "smart_exp3",
    bandwidths: Sequence[float] = (4.0, 7.0, 22.0),
    horizon_slots: int = DEFAULT_HORIZON_SLOTS,
    churn: ChurnModel | None = None,
    areas: Mapping[str, Sequence[int]] | None = None,
    mobility_fraction: float = 0.0,
    mean_dwell_slots: float = 80.0,
    dynamics: NetworkDynamics | None = None,
    seed: int = 0,
    policy_kwargs: Mapping | None = None,
    name: str | None = None,
) -> Scenario:
    """Generate a dynamic scenario from churn/mobility/network-dynamics models.

    All sampling (arrivals, lifetimes, waypoint walks, outage flapping)
    draws from one construction generator seeded with ``seed`` —
    independent of the run seeds, so the generated scenario is a fixed,
    picklable object and repeated calls with equal arguments are identical.

    Parameters
    ----------
    churn:
        A :class:`ChurnModel`; ``None`` keeps every device present for the
        whole horizon.
    areas:
        Optional area-name -> network-ids coverage (the first key is the
        default area); ``None`` uses a single area covering every network.
    mobility_fraction:
        Fraction of devices performing a random-waypoint walk over the areas
        (requires at least two areas to have any effect).
    dynamics:
        Optional :class:`repro.sim.mobility.NetworkDynamics`; its compiled
        outage windows are installed on the coverage map.
    """
    if not 0.0 <= mobility_fraction <= 1.0:
        raise ValueError("mobility_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    networks = make_networks(list(bandwidths))
    if areas is None:
        coverage = CoverageMap.single_area([n.network_id for n in networks])
    else:
        coverage = CoverageMap.from_area_networks(
            areas, default_area=next(iter(areas))
        )
    if dynamics is not None:
        outages = dynamics.compile_outages(horizon_slots, rng)
        if outages:
            coverage = coverage.with_outages(outages)
    if churn is None:
        windows: list[tuple[int, int | None]] = [
            (1, None) for _ in range(num_devices)
        ]
    else:
        windows = churn.presence_windows(num_devices, horizon_slots, rng)
    num_mobile = (
        int(round(mobility_fraction * num_devices))
        if len(coverage.areas) > 1
        else 0
    )
    area_names = tuple(coverage.areas)
    devices: list[Device] = []
    for device_id, (join, leave) in enumerate(windows):
        schedule: dict[int, str] = {}
        if device_id < num_mobile:
            schedule = random_waypoint_schedule(
                area_names, horizon_slots, rng, mean_dwell_slots
            )
        devices.append(
            Device(
                device_id=device_id,
                join_slot=join,
                leave_slot=leave,
                area_schedule=schedule,
            )
        )
    persistent = tuple(
        d.device_id
        for d in devices
        if d.join_slot == 1 and d.leave_slot is None
    )
    transient = tuple(
        d.device_id
        for d in devices
        if d.join_slot != 1 or d.leave_slot is not None
    )
    groups = []
    if persistent:
        groups.append(DeviceGroup(name="persistent", device_ids=persistent))
    if transient:
        groups.append(DeviceGroup(name="transient", device_ids=transient))
    return Scenario(
        name=name or f"churn_d{num_devices}_s{seed}",
        networks=networks,
        device_specs=_uniform_specs(devices, policy, policy_kwargs),
        coverage=coverage,
        horizon_slots=horizon_slots,
        device_groups=groups,
    )


def per_slot_churn_scenario(
    num_devices: int = 100,
    policy: str = "exp3",
    bandwidths: Sequence[float] = (4.0, 7.0, 22.0),
    policy_kwargs: Mapping | None = None,
) -> Scenario:
    """The churn stress setting: a join or departure on every slot.

    The natural horizon follows from the population (see
    :func:`per_slot_churn_windows`); this is the scenario behind the
    ``--suite churn`` benchmark floor.
    """
    windows, horizon = per_slot_churn_windows(num_devices)
    return churn_scenario(
        num_devices=num_devices,
        policy=policy,
        bandwidths=bandwidths,
        horizon_slots=horizon,
        churn=TraceChurn(tuple(windows)),
        policy_kwargs=policy_kwargs,
        name=f"per_slot_churn_d{num_devices}",
    )
