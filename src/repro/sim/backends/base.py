"""Shared infrastructure for the pluggable slot-execution backends.

A backend (:class:`SlotExecutor`) owns the per-slot execution of one
simulation run.  Everything that must be *identical* across backends lives
here, so that any two backends produce bit-for-bit equal
:class:`~repro.sim.metrics.SimulationResult` objects for the same seed:

* :func:`prepare_run` — seeds the environment RNG and the per-device policy
  RNGs in a fixed order (one ``integers`` draw for the environment, then one
  per device in scenario order), so every backend consumes the master seed
  identically.
* :class:`SlotRecorder` — preallocated ``(device, slot)`` result arrays that
  backends write into directly; the final per-device arrays handed to
  :class:`SimulationResult` are row views into these blocks.
* :class:`TopologyPlan` — the run's topology, precomputed as per-slot edit
  events: for every slot the exact joins, departures and visible-set
  changes a backend must apply before selection, plus the coverage eras.
  The slot engine consumes the plan *in-loop* — topology changes are
  membership edits on persistent kernel groups, not segment breaks — so
  high-churn scenarios stay on the batched path.  The event oracle does
  not build one: it checks presence and visibility per device per slot.
* :func:`execute_reference_slot` — the reference per-slot semantics
  (selection → physics → feedback/recording), used verbatim by the event
  backend and by the cross-backend equivalence suite as the behavioural
  oracle.

The contract every backend must honour, in RNG-stream terms:

1. The environment RNG is consumed only by the gain model (per network, in
   order of first appearance among active devices sorted by id) and by the
   delay model (per *switching* device, in ascending device-id order).
2. Each policy owns a private RNG; backends only drive the public policy
   interface (``begin_slot`` / ``end_slot`` / ``update_available_networks``)
   in ascending device-id order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.algorithms.base import Observation, Policy, PolicyContext
from repro.algorithms.registry import create_policy
from repro.sim.environment import WirelessEnvironment
from repro.sim.metrics import NO_NETWORK, SimulationResult
from repro.sim.scenario import Scenario

#: Result dtypes the recorder accepts for its floating-point blocks.
RECORDER_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class RunSeed:
    """A run's RNG root plus the integer label recorded in the result.

    ``run_many`` derives one :class:`numpy.random.SeedSequence` child per run
    via ``SeedSequence(base_seed).spawn`` (streams never alias across
    ``base_seed``/``runs``/``workers`` choices) but still wants the familiar
    ``base_seed + i`` integer to appear as :attr:`SimulationResult.seed` in
    reducer rows and reports; this pairs the two.
    """

    root: np.random.SeedSequence
    label: int


def resolve_run_seed(seed) -> tuple[np.random.SeedSequence, int]:
    """Normalise ``seed`` (int | SeedSequence | RunSeed) to ``(root, label)``.

    For a bare int this is exactly what ``numpy.random.default_rng(seed)``
    would build internally, so integer-seeded runs are bit-identical to the
    historical behaviour.  For a spawned :class:`~numpy.random.SeedSequence`
    the label folds the spawn key into the entropy (provenance only — the
    streams come from the sequence itself).
    """
    if isinstance(seed, RunSeed):
        return seed.root, seed.label
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy if isinstance(seed.entropy, int) else 0
        return seed, int(entropy + sum(seed.spawn_key))
    return np.random.SeedSequence(seed), int(seed)


def derive_run_streams(
    seed, num_devices: int
) -> tuple[int, np.ndarray, int]:
    """The run's environment seed and per-device policy seeds.

    Consumes the master generator exactly as the historical sequential code
    did (one ``integers`` draw for the environment, then one per device in
    scenario order — a bounded-integer *array* draw is bit-identical to the
    equivalent scalar-draw loop), but returns the per-device seeds as one
    array so shard workers can slice their devices out without replaying a
    Python loop over the whole population.  Because the derivation depends
    only on the run seed and the device order — never on the shard layout —
    per-device streams are invariant under any shard/worker count.
    """
    root, label = resolve_run_seed(seed)
    rng = np.random.default_rng(root)
    environment_seed = int(rng.integers(0, 2**63 - 1))
    policy_seeds = rng.integers(0, 2**63 - 1, size=num_devices)
    return environment_seed, policy_seeds, label


class DeviceRuntime:
    """Mutable per-device bookkeeping used during a run."""

    __slots__ = ("spec", "policy", "previous_choice", "visible")

    def __init__(self, spec, policy: Policy) -> None:
        self.spec = spec
        self.policy = policy
        self.previous_choice: int | None = None
        self.visible: frozenset[int] | None = None


def policy_rank_table(specs: Sequence) -> list[tuple[int, int]]:
    """Per-spec ``(device_index, num_devices)`` ranks within each policy name.

    The rank is assigned in scenario-spec order (used by the Centralized
    baseline to spread devices over networks); shard workers receive their
    slice of this table so a shard-local build observes the same global ranks
    an unsharded build would.
    """
    per_policy_counts: dict[str, int] = {}
    for spec in specs:
        per_policy_counts[spec.policy] = per_policy_counts.get(spec.policy, 0) + 1
    per_policy_seen: dict[str, int] = {}
    ranks: list[tuple[int, int]] = []
    for spec in specs:
        index = per_policy_seen.get(spec.policy, 0)
        per_policy_seen[spec.policy] = index + 1
        ranks.append((index, per_policy_counts[spec.policy]))
    return ranks


def build_policies(
    scenario: Scenario,
    policy_seeds: np.ndarray,
    policy_ranks: Sequence[tuple[int, int]] | None = None,
) -> dict[int, DeviceRuntime]:
    """Instantiate one policy per device according to the scenario specs.

    ``policy_seeds`` holds one integer seed per spec, in scenario order —
    drawn by :func:`derive_run_streams` from the run's master generator
    (their order is part of the cross-backend reproducibility contract).
    ``policy_ranks`` may carry precomputed :func:`policy_rank_table` entries;
    shard-local builds pass their slice of the global table so Centralized
    ranks stay population-wide.
    """
    bandwidths = {n.network_id: n.bandwidth_mbps for n in scenario.networks}
    if policy_ranks is None:
        policy_ranks = policy_rank_table(scenario.device_specs)

    runtimes: dict[int, DeviceRuntime] = {}
    for spec, seed, (index, total) in zip(
        scenario.device_specs, policy_seeds, policy_ranks
    ):
        device = spec.device
        visible = scenario.coverage.visible_networks(device, device.join_slot)
        context = PolicyContext(
            network_ids=tuple(sorted(visible)),
            rng=np.random.default_rng(int(seed)),
            slot_duration_s=scenario.slot_duration_s,
            network_bandwidths=dict(bandwidths),
            device_index=index,
            num_devices=total,
        )
        policy = create_policy(spec.policy, context, **spec.policy_kwargs)
        runtime = DeviceRuntime(spec, policy)
        runtime.visible = visible
        runtimes[device.device_id] = runtime
    return runtimes


class SlotRecorder:
    """Preallocated per-run result arrays, written in place by the backends.

    One contiguous block is allocated per quantity with shape
    ``(num_devices, num_slots)`` (plus a network axis for probabilities);
    :meth:`result` hands the blocks to :class:`SimulationResult` *as is* —
    the result stores struct-of-arrays, so finishing a run is a constant-time
    handoff rather than a per-device scatter.  Backends address devices by
    *row* (position of the device id in the sorted id tuple) so recording
    never goes through per-device dict indexing.

    The probability tensor dominates the footprint of a run; passing
    ``record_probabilities=False`` skips its allocation entirely (every
    probability write in the backends and kernels is gated on the block
    being present).

    ``dtype`` selects the storage precision of the floating-point blocks
    (``rates``/``delays``/``probabilities``): ``"float32"`` halves their
    footprint — the lever the sharded engine uses at million-device scale.
    Backends compute in float64 and only *store* at the requested precision,
    so the run's dynamics (choices, switches, policy streams) are bit-exact
    regardless of dtype; equivalence tests pin the float64 default.
    """

    __slots__ = (
        "device_ids",
        "network_order",
        "num_slots",
        "row_of",
        "network_col",
        "choices",
        "rates",
        "delays",
        "switches",
        "active",
        "probabilities",
    )

    def __init__(
        self,
        device_ids: tuple[int, ...],
        network_order: tuple[int, ...],
        num_slots: int,
        record_probabilities: bool = True,
        dtype: str = "float64",
    ) -> None:
        if str(dtype) not in RECORDER_DTYPES:
            raise ValueError(
                f"recorder dtype must be one of {RECORDER_DTYPES}, got {dtype!r}"
            )
        float_dtype = np.dtype(dtype)
        num_devices = len(device_ids)
        num_networks = len(network_order)
        self.device_ids = device_ids
        self.network_order = network_order
        self.num_slots = num_slots
        self.row_of = {device_id: row for row, device_id in enumerate(device_ids)}
        self.network_col = {
            network_id: col for col, network_id in enumerate(network_order)
        }
        self.choices = np.full((num_devices, num_slots), NO_NETWORK, dtype=np.int64)
        self.rates = np.zeros((num_devices, num_slots), dtype=float_dtype)
        self.delays = np.zeros((num_devices, num_slots), dtype=float_dtype)
        self.switches = np.zeros((num_devices, num_slots), dtype=bool)
        self.active = np.zeros((num_devices, num_slots), dtype=bool)
        self.probabilities = (
            np.zeros((num_devices, num_slots, num_networks), dtype=float_dtype)
            if record_probabilities
            else None
        )

    def record_probabilities(self, row: int, slot_index: int, policy: Policy) -> None:
        """Record a policy's current mixed strategy for one (device, slot)."""
        block = self.probabilities
        if block is None:
            return
        prob_row = block[row, slot_index]
        network_col = self.network_col
        for network_id, probability in policy.probabilities.items():
            col = network_col.get(network_id)
            if col is not None:
                prob_row[col] = probability

    def result(
        self,
        scenario: Scenario,
        seed: int,
        runtimes: dict[int, DeviceRuntime],
        rows: slice | None = None,
    ) -> SimulationResult:
        """Assemble the final :class:`SimulationResult` from the blocks.

        ``rows`` selects one run's row block of a recorder shared by stacked
        runs; the result then holds views of those rows.
        """
        blocks = (
            self.choices,
            self.rates,
            self.delays,
            self.switches,
            self.active,
            self.probabilities,
        )
        device_ids = self.device_ids
        if rows is not None:
            device_ids = device_ids[rows]
            blocks = tuple(None if b is None else b[rows] for b in blocks)
        choices, rates, delays, switches, active, probabilities = blocks
        return SimulationResult(
            scenario_name=scenario.name,
            seed=seed,
            num_slots=self.num_slots,
            slot_duration_s=scenario.slot_duration_s,
            networks=dict(scenario.network_map),
            device_ids=device_ids,
            policy_names={d: runtimes[d].spec.policy for d in device_ids},
            choices_2d=choices,
            rates_2d=rates,
            delays_2d=delays,
            switches_2d=switches,
            active_2d=active,
            probabilities_3d=probabilities,
            resets={d: runtimes[d].policy.reset_count for d in device_ids},
        )


@dataclass
class TopologyEvents:
    """The membership/visibility edits one slot boundary carries.

    ``joins``/``leaves`` are recorder rows becoming active/inactive *at* the
    slot; ``visibility`` lists ``(row, new_visible_set)`` pairs for devices
    whose strategy set changes at the slot (service-area transition or a
    network outage edge).  All three lists are in ascending row order.
    """

    joins: list[int] = field(default_factory=list)
    leaves: list[int] = field(default_factory=list)
    visibility: list[tuple[int, frozenset[int]]] = field(default_factory=list)


class TopologyPlan:
    """Array-native schedule of every topology change of one run.

    Built once per run from the scenario's presence windows
    (``join_slot``/``leave_slot``, leave clipped to the horizon), area
    schedules and coverage outages:

    * ``events`` — slot → :class:`TopologyEvents`, exactly the edits the
      reference path's per-slot checks would perform (a visibility event
      appears only when the visible set actually changes while the device
      is present, mirroring ``update_available_networks`` semantics).
    * ``era_starts`` — the first slot of each coverage era (area-transition
      and outage boundaries).
    """

    __slots__ = ("events", "event_slots", "era_starts")

    def __init__(
        self, scenario: Scenario, devices: Sequence, num_slots: int
    ) -> None:
        coverage = scenario.coverage

        outage_boundaries = coverage.outage_boundary_slots()
        events: dict[int, TopologyEvents] = {}

        def at(slot: int) -> TopologyEvents:
            found = events.get(slot)
            if found is None:
                found = events[slot] = TopologyEvents()
            return found

        for row, device in enumerate(devices):
            join = int(device.join_slot)
            leave = (
                num_slots
                if device.leave_slot is None
                else min(int(device.leave_slot), num_slots)
            )
            if join > num_slots:
                continue  # never present within the horizon
            at(join).joins.append(row)
            if leave + 1 <= num_slots:
                at(leave + 1).leaves.append(row)
            # Effective visibility changes: the slots where the reference
            # path's per-slot check would call update_available_networks.
            candidates = {
                slot for slot in device.area_schedule if join < slot <= leave
            }
            candidates.update(
                slot for slot in outage_boundaries if join < slot <= leave
            )
            current = coverage.visible_networks(device, join)
            for slot in sorted(candidates):
                visible = coverage.visible_networks(device, slot)
                if visible != current:
                    at(slot).visibility.append((row, visible))
                    current = visible

        self.events = events
        self.event_slots = sorted(events)

        era_starts = {1}
        for device in devices:
            era_starts.update(
                slot for slot in device.area_schedule if 1 < slot <= num_slots
            )
        era_starts.update(
            slot for slot in outage_boundaries if 1 < slot <= num_slots
        )
        self.era_starts = tuple(sorted(era_starts))


@dataclass
class RunState:
    """Everything a backend needs to execute one run."""

    scenario: Scenario
    seed: int
    environment: WirelessEnvironment
    runtimes: dict[int, DeviceRuntime]
    device_ids: tuple[int, ...]
    any_full_feedback: bool
    num_slots: int
    recorder: SlotRecorder

    def finish(self) -> SimulationResult:
        return self.recorder.result(self.scenario, self.seed, self.runtimes)


def prepare_run(
    scenario: Scenario,
    seed=0,
    record_probabilities: bool = True,
    dtype: str = "float64",
) -> RunState:
    """Seed the RNG streams and allocate the shared run state for one run.

    ``seed`` may be an int, a spawned :class:`numpy.random.SeedSequence`
    (what ``run_many`` hands out per run) or a :class:`RunSeed`; an int
    yields streams bit-identical to the historical behaviour.

    ``record_probabilities=False`` skips the probability tensor: recording
    probabilities never consumes RNG state, so the run's dynamics and every
    other result block stay bit-identical to a fully recorded run.
    ``dtype="float32"`` stores the floating-point blocks at half precision
    (dynamics unaffected — see :class:`SlotRecorder`).
    """
    environment_seed, policy_seeds, label = derive_run_streams(
        seed, len(scenario.device_specs)
    )
    environment = WirelessEnvironment(
        scenario, np.random.default_rng(environment_seed)
    )
    runtimes = build_policies(scenario, policy_seeds)
    device_ids = tuple(sorted(runtimes))
    network_order = tuple(sorted(scenario.network_map))
    num_slots = scenario.horizon_slots
    return RunState(
        scenario=scenario,
        seed=label,
        environment=environment,
        runtimes=runtimes,
        device_ids=device_ids,
        any_full_feedback=any(
            r.policy.needs_full_feedback for r in runtimes.values()
        ),
        num_slots=num_slots,
        recorder=SlotRecorder(
            device_ids, network_order, num_slots, record_probabilities, dtype
        ),
    )


def execute_reference_slot(state: RunState, slot: int) -> None:
    """Process one slot with the reference (event backend) semantics.

    This is the per-slot loop the original runner executed inline: policy
    selection in device order, environment physics, then feedback and
    recording in device order.  The cross-backend equivalence suite holds
    every other backend to it.
    """
    scenario = state.scenario
    environment = state.environment
    runtimes = state.runtimes
    recorder = state.recorder
    slot_index = slot - 1

    # Phase 1: selection.
    slot_choices: dict[int, int] = {}
    for device_id in state.device_ids:
        runtime = runtimes[device_id]
        device = runtime.spec.device
        if not device.is_active(slot):
            continue
        visible = scenario.coverage.visible_networks(device, slot)
        if visible != runtime.visible:
            runtime.policy.update_available_networks(visible)
            runtime.visible = visible
        slot_choices[device_id] = runtime.policy.begin_slot(slot)

    # Phase 2: realised rates.  The association grouping is built once and
    # shared; allocation counts only feed the full-information
    # counterfactuals, so they are skipped otherwise.
    groups = environment.client_groups(slot_choices)
    counts = (
        environment.allocation_counts(slot_choices, groups)
        if state.any_full_feedback
        else None
    )
    realised = environment.realized_rates(slot_choices, slot, groups)

    # Phase 3: feedback and recording.
    row_of = recorder.row_of
    for device_id, network_id in slot_choices.items():
        runtime = runtimes[device_id]
        rate = realised[device_id]
        switched = (
            runtime.previous_choice is not None
            and runtime.previous_choice != network_id
        )
        delay = environment.switching_delay(network_id) if switched else 0.0
        gain = environment.scaled_gain(rate)
        full_feedback = None
        if state.any_full_feedback and runtime.policy.needs_full_feedback:
            full_feedback = environment.counterfactual_gains(
                counts, network_id, runtime.visible or frozenset()
            )
        observation = Observation(
            slot=slot,
            network_id=network_id,
            bit_rate_mbps=rate,
            gain=gain,
            switched=switched,
            delay_s=delay,
            full_feedback=full_feedback,
        )
        runtime.policy.end_slot(slot, observation)
        runtime.previous_choice = network_id

        row = row_of[device_id]
        recorder.choices[row, slot_index] = network_id
        recorder.rates[row, slot_index] = rate
        recorder.delays[row, slot_index] = delay
        recorder.switches[row, slot_index] = switched
        recorder.active[row, slot_index] = True
        recorder.record_probabilities(row, slot_index, runtime.policy)


class SlotExecutor(ABC):
    """A pluggable execution backend for one simulation run.

    Implementations must satisfy the reproducibility contract documented in
    this module: for any scenario and seed, :meth:`execute` returns a
    :class:`SimulationResult` bit-for-bit equal to the one produced by the
    reference event backend.
    """

    #: Registry name of the backend (e.g. ``"event"``, ``"vectorized"``).
    name: str = ""

    @abstractmethod
    def execute(
        self,
        scenario: Scenario,
        seed=0,
        record_probabilities: bool = True,
    ) -> SimulationResult:
        """Run ``scenario`` once with ``seed`` and return the full record.

        ``seed`` accepts an int, a spawned ``SeedSequence`` or a
        :class:`RunSeed`.  ``record_probabilities=False`` drops the per-slot
        probability tensor from the result (all other blocks stay
        bit-identical).
        """
