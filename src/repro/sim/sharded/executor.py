"""The sharded population executor and the lockstep slot driver.

:func:`run_lockstep` is the one slot loop of every batched backend: it
advances a group of :class:`~repro.sim.sharded.engine.ShardEngine` objects
through the engine's phases, slot by slot, with the exchanges between them.
The ``"vectorized"`` backend runs it in-process on a single engine holding
the whole population, or several whole runs of identical physics
(:func:`stack_physics`: network ids, delay model, slot length and horizon;
each run keeps its own network values) as row blocks of one engine
(:func:`run_stacked`).

:class:`ShardedSlotExecutor` partitions a run's device population into
``shards`` contiguous blocks (:mod:`repro.sim.sharded.plan`), executes each
block on its own engine, and synchronises the blocks once per slot with an
all-reduce of the per-network occupancy vector
(:mod:`repro.sim.sharded.bus`).  ``workers=1`` drives every shard in-process
(serial lockstep — the debugging and bit-exactness mode); ``workers>1``
spreads the shards over worker processes communicating through a
shared-memory ring.

Result assembly has two shapes:

* :meth:`~ShardedSlotExecutor.execute` — the standard backend contract:
  every shard's columnar blocks are gathered and stitched into one full
  :class:`~repro.sim.metrics.SimulationResult`, bit-exact against the
  event backend for any shard/worker count.  Appropriate for populations
  whose blocks fit one process.
* :meth:`~ShardedSlotExecutor.map_reduced` — the megascale path: each shard
  applies a shard-capable :class:`~repro.analysis.reducers.Reducer` to
  bounded slot *windows* of its own blocks as the run advances, so no
  process ever holds ``O(devices × slots)`` state; only kilobyte-to-megabyte
  shard summaries are merged at the end.  Reducers that cannot reduce over a
  device partition (e.g. stability, which needs the global mixed-strategy
  tensor) transparently fall back to gather-then-map.

Fault tolerance (see :mod:`repro.sim.sharded.checkpoint` and
:mod:`repro.sim.sharded.faults`): a
:class:`~repro.sim.sharded.checkpoint.CheckpointConfig` makes every worker
snapshot its shard state periodically; ``resume_from=`` restores a run at
its last committed checkpoint and continues bit-exact; a supervision loop
detects crashed or hung workers (exit-code polling parent-side, bounded
barrier waits worker-side), restarts from the last checkpoint with
exponential backoff, and surfaces
:class:`~repro.sim.sharded.faults.ShardFailureError` with per-worker
diagnostics when retries are exhausted.  A
:class:`~repro.sim.sharded.faults.FaultPlan` injects crashes, stalls and
checkpoint corruption so tests and the ``--suite faults`` benchmark prove
recovery works rather than assume it.

Physics support: the closed-form equal-share gain model
(:func:`~repro.sim.sharded.engine.closed_form_rates`) shards freely.
Other gain models consume the environment RNG per network over the *global*
association grouping, which a device-partitioned execution cannot replay
without shipping every choice; such scenarios run as one shard on the same
engine — checkpointing and resume included — and the fallback is recorded
as a ``one_shard_fallback`` telemetry event
(:meth:`ShardedSlotExecutor.supports_scenario` tells in advance).  Delay
models need no such restriction: every engine group resolves a slot's
switching delays in one
:meth:`DelayModel.sample_many <repro.sim.delay.DelayModel.sample_many>`
call.  Under a stochastic model the shards of a run first exchange their
switchers' cells, so that every worker replays the global
ascending-device-order draw on its environment-RNG replica; stream-free
models (:class:`~repro.sim.delay.NoDelayModel` / ``ConstantDelayModel``)
skip the exchange and resolve each group's own switchers.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.profiling import profile_run
from repro.sim.backends.base import SlotExecutor, derive_run_streams
from repro.sim.delay import SwitchCells
from repro.sim.environment import WirelessEnvironment
from repro.sim.metrics import SimulationResult
from repro.sim.scenario import Scenario
from repro.sim.sharded.bus import SerialBus, SharedMemoryBus
from repro.sim.sharded.checkpoint import (
    CheckpointConfig,
    ResumeState,
    checkpoint_dir,
    commit_manifest,
    load_environment,
    load_shard_state,
    resolve_resume,
    run_fingerprint,
    shard_file_name,
    write_environment,
    write_shard_states,
)
from repro.sim.sharded.engine import ShardEngine, closed_form_rates
from repro.sim.sharded.faults import (
    BusTimeoutError,
    FaultPlan,
    InjectedFault,
    ShardFailureError,
    SupervisionConfig,
    WorkerCrashError,
    note_injected_fault,
)
from repro.sim.sharded.plan import (
    HomogeneousPopulation,
    ShardPlan,
    shard_boundaries,
)
from repro.telemetry import get_telemetry, set_proc_label

logger = logging.getLogger("repro.sim.sharded")

#: Default slot-window width for the streaming (reduced) path.
DEFAULT_WINDOW_SLOTS = 256

#: Failure classes the supervision loop may recover from by restarting the
#: run from its last checkpoint.
RECOVERABLE_FAILURES = (InjectedFault, BusTimeoutError, WorkerCrashError)

_NO_DELAYS = np.empty(0, dtype=float)


@dataclass(frozen=True)
class RunParams:
    """Picklable per-run execution parameters shared by serial and workers."""

    num_slots: int
    environment_seed: int
    seed_label: int
    record_probabilities: bool
    dtype: str
    window: int | None
    use_kernels: bool
    coupled: bool
    num_networks: int
    total_devices: int
    heartbeat_seconds: float | None = None
    num_shards: int = 1
    attempt: int = 0
    barrier_timeout_s: float = SupervisionConfig().barrier_timeout_s
    checkpoint: CheckpointConfig | None = None
    fingerprint: str | None = None
    fingerprint_config: dict | None = field(default=None)
    fault_plan: FaultPlan | None = None
    resume: ResumeState | None = None


def _maybe_inject_kill(
    params: RunParams, worker_index: int, slot: int, point: str,
    allow_hard_exit: bool,
) -> None:
    """Fire a scheduled :class:`KillWorker` fault, if one lands here."""
    plan = params.fault_plan
    if plan is None:
        return
    fault = plan.kill_at(worker_index, slot, params.attempt, point)
    if fault is None:
        return
    note_injected_fault(
        "kill_worker",
        worker_index,
        slot,
        point=point,
        attempt=params.attempt,
        hard=fault.hard and allow_hard_exit,
    )
    if fault.hard and allow_hard_exit:
        # Simulated OOM-kill/preemption: die without reporting, cleanup or
        # barrier abort — peers must discover it via the barrier timeout,
        # the parent via the exit code.
        os._exit(17)
    raise InjectedFault(
        f"injected crash: worker {worker_index} at slot {slot} "
        f"({point}, attempt {params.attempt})"
    )


def _build_group(
    specs: list, seed_slices: list[np.ndarray], params: RunParams
) -> tuple[list[ShardEngine], list, list[WirelessEnvironment], int, int]:
    """Build a group's engines fresh, or restore them from a checkpoint.

    Returns ``(engines, reducer_states, [environment], start_slot,
    window_start)``.  The restore path checksum-verifies every file against
    the manifest (:class:`~repro.sim.sharded.checkpoint.CheckpointError` on
    damage) and resumes at the slot after the snapshot.
    """
    resume = params.resume
    if resume is not None:
        engines: list[ShardEngine] = []
        states: list = []
        for spec in specs:
            engine, state = load_shard_state(resume, spec.index)
            engines.append(engine)
            states.append(state)
        environment = load_environment(resume)
        return engines, states, [environment], resume.slot + 1, resume.window_start
    engines = [
        ShardEngine(
            [(spec, seeds, params.seed_label)],
            params.num_slots,
            params.record_probabilities,
            params.dtype,
            params.window,
            params.use_kernels,
        )
        for spec, seeds in zip(specs, seed_slices)
    ]
    environment = WirelessEnvironment(
        engines[0].scenario, np.random.default_rng(params.environment_seed)
    )
    return engines, [None] * len(engines), [environment], 1, 0


def run_lockstep(
    engines: list[ShardEngine],
    bus,
    environments: list[WirelessEnvironment],
    params: RunParams,
    reducer=None,
    worker_index: int = 0,
    states: list | None = None,
    start_slot: int = 1,
    window_start: int = 0,
    allow_hard_exit: bool = False,
    tag: str | None = None,
):
    """Drive a group of shard engines through every slot in lockstep.

    The one slot loop of every batched backend.  Returns the payloads:
    full results (gather mode; one per shard, or one per run of a stacked
    engine) or the reducer's per-shard states (streaming mode,
    ``params.window`` set).  ``environments`` holds one environment per
    run of ``engines[0]`` (a sharded group runs one run).  Every slot has
    one body, whatever the group: each engine observes and returns its
    switchers' occupancy cells, one
    :meth:`DelayModel.sample_many <repro.sim.delay.DelayModel.sample_many>`
    call over a (run × network) :class:`~repro.sim.delay.SwitchCells`
    table resolves them all — each run's delays from its own networks and,
    under a stochastic model, its own environment generator — and each
    engine completes with its slice.  The shards of a run under a
    stochastic model first exchange their cells through ``bus``, so that
    every worker draws the run's whole slot on its generator replica.
    ``start_slot``/``window_start``/``states`` carry a restored checkpoint's
    cursors; a fresh run starts at slot 1 with empty state.  ``tag`` names
    a standalone in-process run (the vectorized backend), which reports
    ``run_start``/``run_end`` events under it, one pair per stacked run; a
    sharded worker group (``tag=None``) reports as
    ``sharded-worker<index>`` with worker lifecycle events and, when
    ``params.heartbeat_seconds`` is set, a telemetry ``progress`` event
    about that often.

    The run's only shard (``params.num_shards == 1``) skips the all-reduce:
    its counts are the global ones.  It is also the only engine that can
    run gain models other than equal share, and, unless faults are being
    injected, it broadcasts spans in which every active row is frozen
    (:meth:`ShardEngine.fast_forward`).

    Throughput (``progress``, ``worker_end``, ``run_end`` and the phase
    profile) counts the slots this call executed, from ``start_slot`` on,
    so a resumed attempt reports its own rate.
    """
    if reducer is not None:
        from repro.analysis.reducers import ShardWindow  # lazy: import cycle

    num_slots = params.num_slots
    single = params.num_shards == 1
    engine = engines[0]
    peers = engines[1:]
    environment = environments[0]
    # The delays of a slot: one sampler call for the whole group.  The
    # generators are read from the live environments (a restored run
    # brings its own), never cached on the checkpointed engine.
    switch_cells = SwitchCells(
        [
            [run.scenario.network_map[int(k)] for k in engine.net_ids]
            for run in engine.runs
        ]
    )
    delay_model = engine.scenario.delay_model
    delay_rngs = [run_environment.rng for run_environment in environments]
    slot_duration_s = engine.scenario.slot_duration_s
    physics = None if engine.closed_form else environment
    if physics is not None and not single:
        raise ValueError(
            f"gain model {type(engine.scenario.gain_model).__name__} draws "
            "over the global association grouping and needs the whole "
            "population in one shard"
        )
    if states is None:
        states = [None] * len(engines)
    window = params.window
    checkpoint = params.checkpoint
    if checkpoint is not None:
        # Kernel draw windows must be exhausted whenever a snapshot is
        # written, so the engines truncate them at the checkpoint cadence.
        for shard in engines:
            shard.draw_barrier_every = checkpoint.every_slots
    fault_plan = params.fault_plan
    forward = single and fault_plan is None
    group_devices = sum(len(shard.device_ids) for shard in engines)
    worker_events = tag is None
    label = tag or f"sharded-worker{worker_index}"
    prof = profile_run(label)
    tele = get_telemetry()
    heartbeat = params.heartbeat_seconds if tele is not None and worker_events else None
    if tele is not None and worker_events:
        tele.event(
            "worker_start",
            worker=worker_index,
            shards=len(engines),
            start_slot=start_slot,
            devices=group_devices,
            attempt=params.attempt,
        )
    elif tele is not None:
        for run in engine.runs:
            tele.event(
                "run_start",
                tag=tag,
                devices=run.hi - run.lo,
                slots=num_slots,
                scenario=run.scenario.name,
                seed=run.seed_label,
                stacked=len(engine.runs),
            )
    started = time.monotonic()
    last_beat = started

    slot = start_slot
    while slot <= num_slots:
        if fault_plan is not None:
            _maybe_inject_kill(params, worker_index, slot, "begin", allow_hard_exit)
        t = prof.now() if prof is not None else 0.0
        counts = engine.begin(slot)
        for peer in peers:
            counts = counts + peer.begin(slot)
        if prof is not None:
            t = prof.add("sampling", t)
        if fault_plan is not None:
            stall = fault_plan.delay_for(worker_index, slot, params.attempt)
            if stall:
                note_injected_fault(
                    "delay_exchange", worker_index, slot, seconds=stall
                )
                time.sleep(stall)
        if not single:
            counts = bus.reduce_counts(slot, counts)
            if prof is not None:
                t = prof.add("bus_exchange", t)
        if fault_plan is not None:
            _maybe_inject_kill(params, worker_index, slot, "mid", allow_hard_exit)

        switchers = [shard.observe(slot, counts, physics) for shard in engines]
        cells = switchers[0] if not peers else np.concatenate(switchers)
        if prof is not None:
            t = prof.add("physics", t)
        position = 0
        if params.coupled:
            # A stochastic model: every worker draws the run's whole slot,
            # in ascending device order, on its own generator replica.
            cells, position = bus.exchange_switchers(slot, cells)
        delays = (
            delay_model.sample_many(
                switch_cells, cells, delay_rngs, slot_duration_s
            )
            if cells.size
            else _NO_DELAYS
        )
        if prof is not None:
            t = prof.add("delays", t)
        for shard, local in zip(engines, switchers):
            shard.complete(slot, delays[position : position + local.size])
            position += local.size
        if prof is not None:
            t = prof.add("reward", t)
        if forward:
            last = engine.fast_forward(slot)
            if last > slot:
                slot = last
                if prof is not None:
                    t = prof.add("fused_window", t)

        if reducer is not None and (
            slot - window_start == window or slot == num_slots
        ):
            width = slot - window_start
            for index, shard in enumerate(engines):
                shard_window = ShardWindow(
                    result=shard.window_result(width),
                    slot_start=window_start,
                    total_slots=num_slots,
                    seed=params.seed_label,
                )
                states[index] = reducer.shard_map(shard_window, states[index])
                shard.reset_window(slot)
            window_start = slot
            if prof is not None:
                t = prof.add("recorder", t)

        if checkpoint is not None and slot % checkpoint.every_slots == 0:
            # Snapshot after the window flush so the manifest's cursors and
            # the pickled reducer states describe the same instant.  When the
            # cadence lands exactly on a flush the recorder was just zeroed,
            # so the snapshot may elide its blocks entirely.
            ckpt_started = time.monotonic()
            write_shard_states(
                checkpoint,
                slot,
                engines,
                states,
                drop_recorder=(reducer is not None and window_start == slot),
            )
            if worker_index == 0:
                write_environment(checkpoint, slot, environment)
            bus.checkpoint_sync(slot)
            if worker_index == 0:
                commit_manifest(
                    checkpoint,
                    slot,
                    params.fingerprint,
                    params.fingerprint_config or {},
                    window_start,
                    params.num_shards,
                )
                if fault_plan is not None:
                    for fault in fault_plan.corruptions_at(slot):
                        note_injected_fault(
                            "corrupt_checkpoint",
                            worker_index,
                            slot,
                            shard=fault.shard,
                        )
                        _garble_checkpoint_file(checkpoint, slot, fault.shard)
            if tele is not None:
                tele.event(
                    "checkpoint_write",
                    worker=worker_index,
                    slot=slot,
                    seconds=round(time.monotonic() - ckpt_started, 6),
                )
            if prof is not None:
                t = prof.add("checkpoint", t)

        if fault_plan is not None:
            _maybe_inject_kill(params, worker_index, slot, "end", allow_hard_exit)

        if heartbeat is not None:
            now = time.monotonic()
            if now - last_beat >= heartbeat:
                rate = (
                    group_devices * (slot - start_slot + 1)
                    / max(now - started, 1e-9)
                )
                tele.event(
                    "progress",
                    worker=worker_index,
                    slot=slot,
                    num_slots=num_slots,
                    device_slots_per_second=round(rate, 1),
                )
                last_beat = now
        slot += 1

    for shard in engines:
        shard.flush_policies()
    executed = num_slots - start_slot + 1
    if prof is not None:
        prof.devices = group_devices
        prof.slots = executed
        prof.emit(
            scenario=engine.scenario.name,
            seed=params.seed_label,
            shards=len(engines),
            runs=len(engine.runs),
        )
    if tele is not None:
        waits = bus.wait_stats()
        if waits is not None:
            tele.event("barrier_waits", worker=worker_index, **waits)
        truncations: dict[str, int] = {}
        for shard in engines:
            for reason, count in shard.window_truncations.items():
                truncations[reason] = truncations.get(reason, 0) + count
        if truncations:
            tele.event(
                "fused_windows",
                tag=label,
                windows=sum(truncations.values()),
                reasons=truncations,
            )
        elapsed = time.monotonic() - started
        rate = round(group_devices * executed / max(elapsed, 1e-9), 1)
        if worker_events:
            tele.event(
                "worker_end",
                worker=worker_index,
                slots=num_slots,
                seconds=round(elapsed, 6),
                device_slots_per_second=rate,
            )
        else:
            for run in engine.runs:
                tele.event(
                    "run_end",
                    tag=tag,
                    seconds=round(elapsed, 6),
                    device_slots_per_second=rate,
                    seed=run.seed_label,
                )
    if reducer is not None:
        return states
    return [result for shard in engines for result in shard.results()]


def _garble_checkpoint_file(
    checkpoint: CheckpointConfig, slot: int, shard_index: int
) -> None:
    """Flip a byte mid-file (fault injection: simulated disk damage)."""
    path = checkpoint_dir(checkpoint, slot) / shard_file_name(shard_index)
    data = bytearray(path.read_bytes())
    if data:
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))


def _stitch(
    shard_results: list[SimulationResult], scenario_name: str
) -> SimulationResult:
    """Concatenate shard results (ascending device ranges) into one result."""
    if len(shard_results) == 1:
        return shard_results[0]
    first = shard_results[0]
    device_ids = tuple(
        device_id for result in shard_results for device_id in result.device_ids
    )
    policy_names: dict = {}
    resets: dict = {}
    for result in shard_results:
        policy_names.update(result.policy_names)
        resets.update(result.resets)
    return SimulationResult(
        scenario_name=scenario_name,
        seed=first.seed,
        num_slots=first.num_slots,
        slot_duration_s=first.slot_duration_s,
        networks=first.networks,
        device_ids=device_ids,
        policy_names=policy_names,
        choices_2d=np.concatenate([r.choices_2d for r in shard_results]),
        rates_2d=np.concatenate([r.rates_2d for r in shard_results]),
        delays_2d=np.concatenate([r.delays_2d for r in shard_results]),
        switches_2d=np.concatenate([r.switches_2d for r in shard_results]),
        active_2d=np.concatenate([r.active_2d for r in shard_results]),
        probabilities_3d=(
            np.concatenate([r.probabilities_3d for r in shard_results])
            if first.probabilities_3d is not None
            else None
        ),
        resets=resets,
    )


def _shard_worker(
    worker_index: int,
    num_workers: int,
    worker_device_offsets: list[int],
    specs: list,
    seed_slices: list[np.ndarray],
    params: RunParams,
    reducer,
    counts_array,
    switcher_array,
    switcher_counts_array,
    progress_array,
    barrier,
    queue,
) -> None:
    """Worker-process entry point: drive one contiguous group of shards."""
    import traceback

    set_proc_label(f"shard-worker{worker_index}")
    try:
        counts_view = np.frombuffer(counts_array, dtype=np.int64).reshape(
            2, num_workers, params.num_networks
        )
        switcher_view = switcher_counts_view = None
        if switcher_array is not None:
            switcher_view = np.frombuffer(
                switcher_array, dtype=np.int64
            ).reshape(2, params.total_devices)
            switcher_counts_view = np.frombuffer(
                switcher_counts_array, dtype=np.int64
            ).reshape(2, num_workers)
        progress_view = np.frombuffer(
            progress_array, dtype=np.int64
        ).reshape(num_workers, 2)
        engines, states, environments, start_slot, window_start = _build_group(
            specs, seed_slices, params
        )
        bus = SharedMemoryBus(
            worker_index,
            num_workers,
            worker_device_offsets,
            counts_view,
            switcher_view,
            switcher_counts_view,
            barrier,
            timeout_s=params.barrier_timeout_s,
            progress_view=progress_view,
        )
        payloads = run_lockstep(
            engines,
            bus,
            environments,
            params,
            reducer,
            worker_index=worker_index,
            states=states,
            start_slot=start_slot,
            window_start=window_start,
            allow_hard_exit=True,
        )
        queue.put((worker_index, "ok", payloads))
    except BaseException:
        try:
            barrier.abort()
        except Exception:
            pass
        queue.put((worker_index, "error", traceback.format_exc()))


def _plan_slots(plan: ShardPlan) -> int:
    spec = plan.specs[0]
    if spec.scenario is not None:
        return spec.scenario.horizon_slots
    return spec.population.horizon_slots


def _run_params(
    plan: ShardPlan,
    seed,
    record_probabilities: bool,
    dtype: str,
    window: int | None,
    use_kernels: bool,
) -> tuple[RunParams, list[np.ndarray]]:
    """The run's parameters and each shard's slice of the policy seeds."""
    environment_seed, policy_seeds, label = derive_run_streams(
        seed, plan.num_devices
    )
    spec = plan.specs[0]
    if spec.scenario is not None:
        num_networks = len(spec.scenario.networks)
        delay_model = spec.scenario.delay_model
    else:
        num_networks = len(spec.population.bandwidths)
        delay_model = spec.population.delay_model
    params = RunParams(
        num_slots=_plan_slots(plan),
        environment_seed=environment_seed,
        seed_label=label,
        record_probabilities=record_probabilities,
        dtype=dtype,
        window=window,
        use_kernels=use_kernels,
        coupled=not getattr(delay_model, "stream_free", False),
        num_networks=num_networks,
        total_devices=plan.num_devices,
        num_shards=plan.shards,
    )
    return params, [policy_seeds[spec.seed_positions] for spec in plan.specs]


def stack_physics(scenario: Scenario) -> tuple:
    """What runs must share to advance as row blocks of one engine.

    Only what is shared by construction: the network ids (the recorder and
    kernel columns), the delay model (one sampler each run calls with its
    own RNG and its own networks), the slot length and the horizon.  Each
    run keeps its own network values — bandwidths, gain-scaling reference
    and network types (:class:`~repro.sim.sharded.engine.ShardEngine` and
    the :class:`~repro.sim.delay.SwitchCells` of :func:`run_lockstep` hold
    them per occupancy cell) — and its own devices, policies, topology and
    environment RNG.  Runs
    whose scenarios compare equal here, on the equal-share gain model,
    stack bit-exactly: settings 1 and 2 of the paper share one engine.
    """
    return (
        tuple(sorted(network.network_id for network in scenario.networks)),
        scenario.delay_model,
        scenario.slot_duration_s,
        scenario.horizon_slots,
    )


def run_stacked(
    cells, record_probabilities: bool, use_kernels: bool, tag: str
) -> list[SimulationResult]:
    """Runs as contiguous row blocks of one in-process engine.

    ``cells`` lists ``(scenario, seed)`` per run, scenarios of equal
    :func:`stack_physics` on equal-share physics (one cell may have any
    physics).  The lockstep driver advances them together without bus,
    supervision or durability; each run draws its streams from its own
    seed, so every result equals the run's solo result bit for bit.  One
    cell is the vectorized backend's run.
    """
    if len(cells) > 1:
        physics = stack_physics(cells[0][0])
        for scenario, _ in cells:
            if not closed_form_rates(scenario) or stack_physics(scenario) != physics:
                raise ValueError(
                    f"scenario {scenario.name!r} cannot join this stack: "
                    "stacked runs need the equal-share gain model and "
                    "equal stack_physics"
                )
    runs, environments, params_of = [], [], []
    for scenario, seed in cells:
        plan = ShardPlan.from_scenario(scenario, 1)
        params, (policy_seeds,) = _run_params(
            plan,
            seed,
            record_probabilities=record_probabilities,
            dtype="float64",
            window=None,
            use_kernels=use_kernels,
        )
        params_of.append(params)
        runs.append((plan.specs[0], policy_seeds, params.seed_label))
        environments.append(
            WirelessEnvironment(
                scenario, np.random.default_rng(params.environment_seed)
            )
        )
    first = params_of[0]
    engine = ShardEngine(
        runs,
        first.num_slots,
        record_probabilities=record_probabilities,
        use_kernels=use_kernels,
    )
    return run_lockstep([engine], SerialBus(), environments, first, tag=tag)


class ShardedSlotExecutor(SlotExecutor):
    """Device-axis sharded execution with a per-slot occupancy all-reduce.

    Parameters
    ----------
    shards:
        Number of device blocks (clamped to the population size).
    workers:
        ``1`` drives every shard in-process (serial lockstep); larger values
        spread the shards over that many processes synchronised through a
        shared-memory ring.  Results are bit-identical either way.
    dtype:
        Recorder precision for the floating-point blocks (``"float32"``
        halves per-shard RSS; dynamics are dtype-independent).
    window_slots:
        Slot-window width of the streaming reduced path
        (:meth:`map_reduced`); bounds per-shard recorder memory at
        ``O(devices/shards × window_slots)``.
    heartbeat_seconds:
        How often each worker writes a telemetry ``progress`` event during
        a run (only while telemetry is on); ``None`` writes none.
    checkpoint:
        A :class:`~repro.sim.sharded.checkpoint.CheckpointConfig` enabling
        periodic shard-state snapshots (and checkpoint-based crash
        recovery); ``None`` disables durability.  Its directory holds one
        run's checkpoints; a multi-run experiment resumes through the run
        registry instead (``run_many(..., cache="reuse")``).
    resume_from:
        A checkpoint directory (the configured ``checkpoint.dir`` or one
        specific ``ckpt_<slot>`` subdirectory) to restore the run from.
        The manifest is validated against this run's configuration; a
        mismatch or missing checkpoint fails loudly, and the resumed run
        is bit-identical to one that never stopped.
    supervision:
        Worker supervision knobs (barrier timeout, restart budget,
        backoff); defaults to
        :class:`~repro.sim.sharded.faults.SupervisionConfig`.
    fault_plan:
        Test-only fault injection schedule
        (:class:`~repro.sim.sharded.faults.FaultPlan`); production runs
        leave it ``None``.
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = 2,
        workers: int = 1,
        dtype: str = "float64",
        window_slots: int = DEFAULT_WINDOW_SLOTS,
        heartbeat_seconds: float | None = None,
        checkpoint: CheckpointConfig | None = None,
        resume_from: str | Path | None = None,
        supervision: SupervisionConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if window_slots < 1:
            raise ValueError(f"window_slots must be >= 1, got {window_slots}")
        self.shards = shards
        self.workers = workers
        self.dtype = dtype
        self.window_slots = window_slots
        self.heartbeat_seconds = heartbeat_seconds
        self.checkpoint = checkpoint
        self.resume_from = None if resume_from is None else str(resume_from)
        self.supervision = supervision or SupervisionConfig()
        self.fault_plan = fault_plan

    def _copy(self, **overrides) -> "ShardedSlotExecutor":
        settings = dict(
            shards=self.shards,
            workers=self.workers,
            dtype=self.dtype,
            window_slots=self.window_slots,
            heartbeat_seconds=self.heartbeat_seconds,
            checkpoint=self.checkpoint,
            resume_from=self.resume_from,
            supervision=self.supervision,
            fault_plan=self.fault_plan,
        )
        settings.update(overrides)
        return ShardedSlotExecutor(**settings)

    def with_shards(
        self, shards: int, workers: int | None = None
    ) -> "ShardedSlotExecutor":
        """A copy configured for ``shards`` blocks (and optionally workers)."""
        return self._copy(
            shards=shards,
            workers=self.workers if workers is None else workers,
        )

    def with_durability(
        self,
        checkpoint: CheckpointConfig | None = None,
        resume_from: str | Path | None = None,
    ) -> "ShardedSlotExecutor":
        """A copy with checkpointing/resume configured."""
        return self._copy(checkpoint=checkpoint, resume_from=resume_from)

    # ----------------------------------------------------------- capability

    @staticmethod
    def supports_scenario(scenario: Scenario) -> bool:
        """Whether the scenario's physics is shardable.

        Equal-share rates depend on peers only through the per-network
        occupancy counts — the quantity the all-reduce exchanges.  Any other
        gain model consumes the environment RNG over the global association
        grouping, which sharded execution cannot replay
        (:func:`~repro.sim.sharded.engine.closed_form_rates`).
        """
        return closed_form_rates(scenario)

    def _one_shard_fallback(self, scenario: Scenario) -> int:
        """Shard count for ``scenario``: one shard if its physics needs it.

        Gain models other than equal share run as the whole population's
        only shard on the same engine, so checkpointing and resume keep
        working; the fallback is recorded as a ``one_shard_fallback``
        telemetry event.
        """
        if self.supports_scenario(scenario):
            return self.shards
        tele = get_telemetry()
        if tele is not None:
            tele.event(
                "one_shard_fallback",
                gain_model=type(scenario.gain_model).__name__,
                shards=self.shards,
                scenario=scenario.name,
            )
        return 1

    # ------------------------------------------------------------ execution

    def execute(
        self,
        scenario: Scenario,
        seed=0,
        record_probabilities: bool = True,
    ) -> SimulationResult:
        """One run, shards gathered and stitched into the full result."""
        plan = ShardPlan.from_scenario(
            scenario, self._one_shard_fallback(scenario)
        )
        shard_results = self._execute_plan(
            plan,
            seed,
            reducer=None,
            record_probabilities=record_probabilities,
            window=None,
        )
        return _stitch(shard_results, scenario.name)

    def map_reduced(
        self,
        scenario: Scenario,
        seed,
        reducer,
        record_probabilities: bool | None = None,
    ):
        """One run reduced to ``reducer.map``'s payload, in-shard if possible.

        Shard-capable reducers stream over bounded slot windows inside each
        shard (no process ever holds the full blocks); others fall back to
        gather-then-map.  Either way the returned payload is exactly what
        ``reducer.map(full_result)`` would produce (up to float summation
        order), so ``run_many``'s merge/finalize machinery is unaffected.
        """
        if reducer.shard_capable() and self.supports_scenario(scenario):
            plan = ShardPlan.from_scenario(scenario, self.shards)
            return self._reduce_plan(plan, seed, reducer)
        wants_probabilities = (
            reducer.needs_probabilities
            if record_probabilities is None
            else record_probabilities
        )
        return reducer.map(
            self.execute(scenario, seed, record_probabilities=wants_probabilities)
        )

    def execute_population(
        self, population: HomogeneousPopulation, seed, reducer
    ):
        """A generative-population run on the streaming reduced path.

        The full device list never materialises in any process — each shard
        builds its own slice from the population factory.  Requires a
        shard-capable reducer (there is no gather fallback at this scale).
        """
        if not reducer.shard_capable():
            raise ValueError(
                f"reducer {type(reducer).__name__} cannot reduce over a "
                "device partition; megascale populations require a "
                "shard-capable reducer (summary/downloads/timeseries)"
            )
        plan = ShardPlan.from_population(population, self.shards)
        return self._reduce_plan(plan, seed, reducer)

    # ------------------------------------------------------------- internals

    def _reduce_plan(self, plan: ShardPlan, seed, reducer):
        window = min(self.window_slots, _plan_slots(plan))
        shard_states = self._execute_plan(
            plan,
            seed,
            reducer=reducer,
            record_probabilities=False,
            window=window,
        )
        merged = shard_states[0]
        for state in shard_states[1:]:
            merged = reducer.shard_merge(merged, state)
        return reducer.shard_finalize(merged)

    def _execute_plan(
        self,
        plan: ShardPlan,
        seed,
        reducer,
        record_probabilities: bool,
        window: int | None,
    ) -> list:
        params, seed_slices = _run_params(
            plan,
            seed,
            record_probabilities=record_probabilities,
            dtype=self.dtype,
            window=window,
            use_kernels=True,
        )
        num_slots = params.num_slots
        checkpoint = self.checkpoint
        fingerprint = fingerprint_config = None
        if checkpoint is not None or self.resume_from is not None:
            fingerprint, fingerprint_config = run_fingerprint(
                plan,
                num_slots=num_slots,
                seed_label=params.seed_label,
                environment_seed=params.environment_seed,
                record_probabilities=record_probabilities,
                dtype=self.dtype,
                window=window,
                use_kernels=True,
                reducer=type(reducer).__name__ if reducer is not None else "gather",
            )
        params = replace(
            params,
            heartbeat_seconds=self.heartbeat_seconds,
            barrier_timeout_s=self.supervision.barrier_timeout_s,
            checkpoint=checkpoint,
            fingerprint=fingerprint,
            fingerprint_config=fingerprint_config,
            fault_plan=self.fault_plan,
        )
        workers = min(self.workers, plan.shards)

        tele = get_telemetry()
        run_started = time.monotonic()
        if tele is not None:
            tele.event(
                "run_start",
                tag="sharded",
                devices=plan.num_devices,
                slots=num_slots,
                shards=plan.shards,
                workers=workers,
            )

        supervision = self.supervision
        attempts: list[dict] = []
        attempt = 0
        while True:
            if attempt == 0:
                # An explicit resume_from must exist and validate; a plain
                # run starts fresh even if old checkpoints linger.
                resume = resolve_resume(
                    self.resume_from, fingerprint, fingerprint_config,
                    required=True,
                ) if self.resume_from is not None else None
            else:
                resume = resolve_resume(
                    checkpoint.path if checkpoint is not None else None,
                    fingerprint,
                    fingerprint_config,
                    required=False,
                )
            run_params = replace(params, attempt=attempt, resume=resume)
            try:
                if workers <= 1:
                    payloads = self._attempt_serial(
                        plan, run_params, seed_slices, reducer
                    )
                else:
                    payloads = self._attempt_parallel(
                        plan, run_params, seed_slices, reducer, workers
                    )
                if tele is not None:
                    elapsed = time.monotonic() - run_started
                    tele.event(
                        "run_end",
                        tag="sharded",
                        seconds=round(elapsed, 6),
                        device_slots_per_second=round(
                            plan.num_devices * num_slots / max(elapsed, 1e-9),
                            1,
                        ),
                        attempts=attempt + 1,
                    )
                return payloads
            except RECOVERABLE_FAILURES as exc:
                record = {
                    "attempt": attempt,
                    "error": f"{type(exc).__name__}: {exc}",
                }
                if isinstance(exc, WorkerCrashError):
                    record["workers"] = exc.workers
                attempts.append(record)
                if checkpoint is None or attempt >= supervision.max_restarts:
                    reason = (
                        "no checkpointing configured — cannot restart"
                        if checkpoint is None
                        else f"restart budget ({supervision.max_restarts}) exhausted"
                    )
                    if tele is not None:
                        tele.event(
                            "run_failed",
                            tag="sharded",
                            error=record["error"],
                            attempts=attempt + 1,
                        )
                    raise ShardFailureError(
                        f"sharded run failed after {attempt + 1} attempt(s); "
                        f"{reason}",
                        attempts,
                    ) from exc
                backoff = supervision.backoff_s * (2**attempt)
                if tele is not None:
                    tele.event(
                        "worker_restart",
                        attempt=attempt,
                        error=record["error"],
                        backoff_s=round(backoff, 6),
                        workers=record.get("workers"),
                    )
                logger.warning(
                    "sharded run attempt %d failed (%s); restarting from "
                    "last checkpoint in %.2fs",
                    attempt,
                    type(exc).__name__,
                    backoff,
                )
                time.sleep(backoff)
                attempt += 1

    def _attempt_serial(
        self,
        plan: ShardPlan,
        params: RunParams,
        seed_slices: list[np.ndarray],
        reducer,
    ) -> list:
        engines, states, environments, start_slot, window_start = _build_group(
            list(plan.specs), seed_slices, params
        )
        return run_lockstep(
            engines,
            SerialBus(),
            environments,
            params,
            reducer,
            worker_index=0,
            states=states,
            start_slot=start_slot,
            window_start=window_start,
        )

    def _attempt_parallel(
        self,
        plan: ShardPlan,
        params: RunParams,
        seed_slices: list[np.ndarray],
        reducer,
        workers: int,
    ) -> list:
        import multiprocessing as mp

        ctx = mp.get_context()
        # Contiguous shard groups per worker, preserving ascending device
        # ranges (the switcher exchange relies on worker-order concatenation
        # being globally sorted).
        groups = shard_boundaries(plan.shards, workers)
        worker_device_offsets = [
            plan.specs[group_lo].lo for group_lo, _ in groups
        ]

        counts_array = ctx.RawArray("q", 2 * workers * params.num_networks)
        switcher_array = switcher_counts_array = None
        if params.coupled:
            switcher_array = ctx.RawArray("q", 2 * params.total_devices)
            switcher_counts_array = ctx.RawArray("q", 2 * workers)
        progress_array = ctx.RawArray("q", workers * 2)
        barrier = ctx.Barrier(workers)
        queue = ctx.Queue()

        processes = []
        for index, (group_lo, group_hi) in enumerate(groups):
            processes.append(
                ctx.Process(
                    target=_shard_worker,
                    args=(
                        index,
                        workers,
                        worker_device_offsets,
                        list(plan.specs[group_lo:group_hi]),
                        seed_slices[group_lo:group_hi],
                        params,
                        reducer,
                        counts_array,
                        switcher_array,
                        switcher_counts_array,
                        progress_array,
                        barrier,
                        queue,
                    ),
                    daemon=True,
                )
            )
        for process in processes:
            process.start()

        progress = np.frombuffer(progress_array, dtype=np.int64).reshape(
            workers, 2
        )
        supervision = self.supervision
        payloads_by_worker: dict[int, list] = {}
        errors_by_worker: dict[int, str] = {}
        failure: WorkerCrashError | None = None
        try:
            import queue as queue_module

            # Workers report once, at the end of the run, which can be
            # arbitrarily far away (a megascale run is tens of minutes) —
            # so poll with a short timeout and keep waiting for as long as
            # every worker is alive.  A worker that dies without reporting
            # (OOM-kill, segfault, injected hard kill) fails the run
            # promptly instead; workers that lose a *peer* fail themselves
            # via the bounded barrier wait.
            while len(payloads_by_worker) < workers and failure is None:
                try:
                    worker_index, status, payload = queue.get(
                        timeout=supervision.poll_interval_s
                    )
                except queue_module.Empty:
                    dead = [
                        index
                        for index, process in enumerate(processes)
                        if process.exitcode not in (None, 0)
                    ]
                    if dead:
                        failure = WorkerCrashError(
                            f"worker process(es) {dead} exited without "
                            "reporting a result",
                            self._worker_diagnostics(
                                processes, progress, errors_by_worker,
                                payloads_by_worker,
                            ),
                        )
                    continue
                if status == "ok":
                    payloads_by_worker[worker_index] = payload
                else:
                    errors_by_worker[worker_index] = payload
                    if failure is None:
                        failure = WorkerCrashError(
                            f"worker {worker_index} failed:\n{payload}",
                            self._worker_diagnostics(
                                processes, progress, errors_by_worker,
                                payloads_by_worker,
                            ),
                        )
        finally:
            if failure is not None:
                # Unblock any worker parked at the barrier, then stop them.
                try:
                    barrier.abort()
                except Exception:
                    pass
                for process in processes:
                    process.join(timeout=5.0)
                for process in processes:
                    if process.is_alive():
                        process.terminate()
            for process in processes:
                process.join(timeout=params.barrier_timeout_s)
        if failure is not None:
            raise failure
        ordered: list = []
        for index in range(workers):
            ordered.extend(payloads_by_worker[index])
        return ordered

    @staticmethod
    def _worker_diagnostics(
        processes, progress: np.ndarray, errors: dict, payloads: dict
    ) -> dict[int, dict]:
        """Per-worker post-mortem: exit code, last barrier seen, traceback."""
        from repro.sim.sharded.bus import PHASE_NAMES

        diagnostics: dict[int, dict] = {}
        snapshot = np.array(progress)
        for index, process in enumerate(processes):
            last_slot = int(snapshot[index, 0])
            info = {
                "exitcode": process.exitcode,
                "reported": index in payloads or index in errors,
                "last_slot": last_slot,
                "last_phase": (
                    PHASE_NAMES[int(snapshot[index, 1])] if last_slot > 0 else None
                ),
            }
            if index in errors:
                info["error"] = errors[index]
            diagnostics[index] = info
        return diagnostics
