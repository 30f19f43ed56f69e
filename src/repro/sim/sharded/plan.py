"""Device-axis shard planning.

A :class:`ShardPlan` partitions one run's device population into ``K``
contiguous blocks of the global row order (devices sorted by id — the same
order every backend uses for its columnar blocks), so that stitching shard
results back together is a plain concatenation.  Each shard is described by
a picklable :class:`ShardSpec` carrying everything a worker process needs to
build its slice of the run *without* the full population:

* a sub-:class:`~repro.sim.scenario.Scenario` holding only the shard's
  device specs (networks, coverage, gain/delay models are shared in full —
  the per-slot physics needs the complete network axis), or a
  :class:`HomogeneousPopulation` factory that builds it on demand so a
  million-device population never materialises in the parent process;
* the shard devices' positions in the global scenario-spec order, used to
  slice the run's per-device policy-seed array
  (:func:`repro.sim.backends.base.derive_run_streams`) — per-device RNG
  streams therefore depend only on the run seed and the device order, never
  on the shard layout, which is what makes results shard-count invariant;
* the shard devices' global policy ranks (Centralized assigns devices to
  networks by population-wide rank, so a shard-local rank would diverge).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.game.device import Device
from repro.game.network import make_networks
from repro.sim.backends.base import policy_rank_table
from repro.sim.delay import ConstantDelayModel, DelayModel
from repro.sim.mobility import CoverageMap
from repro.sim.scenario import (
    DEFAULT_SLOT_DURATION_S,
    DeviceSpec,
    Scenario,
)


@dataclass(frozen=True)
class HomogeneousPopulation:
    """A generative description of a uniform million-device population.

    Builds per-shard :class:`~repro.sim.scenario.Scenario` slices on demand
    (:meth:`build_shard`), so neither the parent nor any worker ever holds
    the full device list — the megascale driver's memory story starts here.
    All devices run ``policy`` over the same single-area network set and are
    present for the whole horizon; the default delay model is stream-free
    (:class:`~repro.sim.delay.ConstantDelayModel`), which lets shards sample
    switching delays locally without the per-slot switcher exchange.
    """

    num_devices: int
    policy: str = "exp3"
    bandwidths: tuple[float, ...] = (4.0, 7.0, 22.0)
    horizon_slots: int = 1000
    slot_duration_s: float = DEFAULT_SLOT_DURATION_S
    delay_model: DelayModel = field(default_factory=ConstantDelayModel)
    policy_kwargs: Mapping = field(default_factory=dict)
    name: str = "megascale"

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")

    def build_shard(self, lo: int, hi: int) -> Scenario:
        """The sub-scenario for global device rows ``[lo, hi)``."""
        networks = make_networks(list(self.bandwidths))
        coverage = CoverageMap.single_area([n.network_id for n in networks])
        specs = [
            DeviceSpec(
                device=Device(device_id=device_id),
                policy=self.policy,
                policy_kwargs=dict(self.policy_kwargs),
            )
            for device_id in range(lo, hi)
        ]
        return Scenario(
            name=self.name,
            networks=networks,
            device_specs=specs,
            coverage=coverage,
            delay_model=self.delay_model,
            horizon_slots=self.horizon_slots,
            slot_duration_s=self.slot_duration_s,
        )


@dataclass(frozen=True)
class ShardSpec:
    """One shard's work description (picklable, O(shard devices))."""

    index: int
    #: Global row range ``[lo, hi)`` in the sorted-device-id order.
    lo: int
    hi: int
    #: The shard's sub-scenario, specs in global row order — or ``None``
    #: when the shard builds it from ``population`` on demand.
    scenario: Scenario | None
    population: HomogeneousPopulation | None
    #: Per local row: the device's position in the global scenario-spec
    #: order (indexes the run's policy-seed array).
    seed_positions: np.ndarray
    #: Per local row: the device's global ``(device_index, num_devices)``
    #: rank within its policy name.
    policy_ranks: tuple[tuple[int, int], ...]

    @property
    def num_devices(self) -> int:
        return self.hi - self.lo

    def materialize(self) -> Scenario:
        """The shard's sub-scenario (built from the factory if needed)."""
        if self.scenario is not None:
            return self.scenario
        return self.population.build_shard(self.lo, self.hi)


def shard_boundaries(num_devices: int, shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` splits of ``range(num_devices)``."""
    shards = max(1, min(shards, num_devices))
    base, extra = divmod(num_devices, shards)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ShardPlan:
    """Device→shard assignment for one scenario (or generative population).

    ``shards`` is clamped to the population size; ``shards=1`` degenerates
    to a single block covering every device: the layout of the vectorized
    backend and of scenarios the all-reduce cannot split.
    """

    def __init__(self, specs: Sequence[ShardSpec], num_devices: int) -> None:
        self.specs = tuple(specs)
        self.num_devices = num_devices

    @property
    def shards(self) -> int:
        return len(self.specs)

    @classmethod
    def from_scenario(cls, scenario: Scenario, shards: int) -> "ShardPlan":
        """Partition an explicit scenario's devices into ``shards`` blocks."""
        ranks = policy_rank_table(scenario.device_specs)
        # Global row order: devices sorted by id, each remembering its
        # position in the original spec order (seed order) and its rank.
        ordered = sorted(
            zip(scenario.device_specs, range(len(ranks)), ranks),
            key=lambda entry: entry[0].device.device_id,
        )
        bounds = shard_boundaries(len(ordered), shards)
        specs = []
        for index, (lo, hi) in enumerate(bounds):
            block = ordered[lo:hi]
            specs.append(
                ShardSpec(
                    index=index,
                    lo=lo,
                    hi=hi,
                    scenario=replace(
                        scenario,
                        device_specs=[entry[0] for entry in block],
                    ),
                    population=None,
                    seed_positions=np.asarray(
                        [entry[1] for entry in block], dtype=np.intp
                    ),
                    policy_ranks=tuple(entry[2] for entry in block),
                )
            )
        return cls(specs, len(ordered))

    @classmethod
    def from_population(
        cls, population: HomogeneousPopulation, shards: int
    ) -> "ShardPlan":
        """Partition a generative population without materialising it."""
        total = population.num_devices
        bounds = shard_boundaries(total, shards)
        specs = []
        for index, (lo, hi) in enumerate(bounds):
            specs.append(
                ShardSpec(
                    index=index,
                    lo=lo,
                    hi=hi,
                    scenario=None,
                    population=population,
                    # Spec order == id order == row order for a uniform
                    # population, so positions and ranks are arithmetic.
                    seed_positions=np.arange(lo, hi, dtype=np.intp),
                    policy_ranks=tuple(
                        (row, total) for row in range(lo, hi)
                    ),
                )
            )
        return cls(specs, total)
