"""Simulation driver: executes a scenario with one policy instance per device.

``run_simulation`` performs a single run through a pluggable execution
backend (see :mod:`repro.sim.backends`) and returns a
:class:`repro.sim.metrics.SimulationResult`; ``run_many`` repeats it with
independent seeds — stacked into one engine or one at a time, in process
or on a process pool — which is how every multi-run experiment of the
paper is produced, and ``run_many_scenarios`` does so for several
scenarios in one run loop.

Every backend is bit-exact: for a fixed seed, ``backend="event"``,
``backend="vectorized"`` and ``backend="sharded"`` return identical
results, and a stacked or parallel ``run_many`` returns exactly what runs
one at a time would.

Seeding
-------

``run_many`` derives run ``i``'s RNG root as
``numpy.random.SeedSequence(base_seed).spawn(runs)[i]`` — spawned child
sequences are cryptographically separated, so streams never alias across
``base_seed`` choices, run counts, worker counts or shard counts (the old
``base_seed + i`` offsets made run 1 of ``base_seed=0`` identical to run 0
of ``base_seed=1``).  The familiar ``base_seed + i`` integer is still
recorded as :attr:`SimulationResult.seed` for provenance.  A direct
``run_simulation(scenario, seed=k)`` keeps the historical integer-seeded
streams (``default_rng(k)``).

One run loop, over cells
------------------------

A cell is one (scenario, run index) pair.  ``run_many`` hands its cells,
:func:`run_many_scenarios` the cells of all its scenarios (a paper
driver's whole setting × policy grid), and
:func:`~repro.registry.sweep.run_sweep` the cells of all its cases, to one
loop, :func:`run_cells`.  Registry hits (with ``cache="reuse"``) are
loaded first.  The missing cells are then planned once into batches.
Cells whose scenarios share their physics
(:func:`~repro.sim.sharded.executor.stack_physics`: one set of network
ids, equal-share rates, one delay model, slot length and horizon; each run
keeps its own bandwidths, gain scale and network types) form stacks that
advance as row blocks of one engine
(:meth:`~repro.sim.backends.vectorized.VectorizedSlotExecutor.execute_stack`),
of at most :data:`STACK_BUDGET_BYTES` of records, so each kernel call
serves every stacked run of its policy family (the four Smart EXP3
variants of Table III share one kernel group).  A cell on a backend
without stacking (``event``, ``sharded``), on another gain model, or above
the budget is a batch of one; the reason is a ``run_solo`` telemetry
event, and each stack a ``run_stack`` event.  One loop runs the batches,
in process or on a process pool (``workers > 1``), where a stack holds at
most ``ceil(N / workers)`` of the call's ``N`` stackable cells, so every
worker gets a stack.  Batching is decided from the cells and the worker
count alone — there is no option — and every stacked run's result is
bit-identical to its solo result.  Each fresh payload is stored in the
registry as it arrives, and one left fold in run-index order produces
each case's output.  A payload is the full
:class:`~repro.sim.metrics.SimulationResult`, or — when ``reduce=`` is
given — only the reducer's kilobyte payload (:meth:`Reducer.map
<repro.analysis.reducers.Reducer.map>` runs where the batch executes), so
a reduced experiment holds one stack of records at a time per process
regardless of ``runs``.

IPC contract of the parallel path
---------------------------------

One :func:`run_cells` call opens at most one process pool, whatever the
number of scenarios, and none for a single batch.  The run context —
every scenario of the call with its base seed, the resolved executor
instance, the reducer and the probability-recording flag — is pickled
**once per worker process** through the pool initializer, not once per
job.  A batch travels as its solo reason (``None`` for a stack) and its
``(scenario number, run index)`` pairs of small integers (the worker
reconstructs the spawned seeds locally).  Each stack is one job, queued
ahead of the solo cells, which go out in chunks, about four per worker,
so submitting 500 solo runs costs 500 pairs over the pipe instead of 500
copies of the scenario.  A job returns its batches' payloads in one
message: with full results, a whole stack of records.
Shipping the resolved executor (rather than the backend name) means custom
backends registered via ``register_backend`` do not depend on the worker's
freshly imported registry; on spawn/forkserver platforms this still
requires the executor class to be picklable, i.e. importable by module path
in the worker (a class defined in a REPL is not).
"""

from __future__ import annotations

import functools
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.sim.backends import (
    DEFAULT_BACKEND,
    RunSeed,
    SlotExecutor,
    available_backends,
    get_backend,
)
from repro.sim.metrics import SimulationResult
from repro.sim.scenario import Scenario
from repro.telemetry import get_telemetry, take_run_summary


def run_simulation(
    scenario: Scenario,
    seed: int = 0,
    backend: str = DEFAULT_BACKEND,
    record_probabilities: bool = True,
) -> SimulationResult:
    """Execute one run of ``scenario`` and return its full slot-by-slot record.

    ``record_probabilities=False`` skips the per-slot probability tensor (the
    dominant share of a run's footprint); all other result blocks stay
    bit-identical.
    """
    return get_backend(backend).execute(
        scenario, seed, record_probabilities=record_probabilities
    )


def _spawned_run_seed(base_seed: int, index: int) -> RunSeed:
    """Run ``index``'s seed: the ``index``-th spawn of ``base_seed``'s root.

    ``SeedSequence(entropy, spawn_key=(i,))`` is exactly what
    ``SeedSequence(entropy).spawn(n)[i]`` constructs, so workers can build
    their runs' seeds locally without the parent shipping sequence objects.
    """
    return RunSeed(
        root=np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)),
        label=base_seed + index,
    )


class RunFailure(RuntimeError):
    """One run of a multi-run experiment failed.

    Raised in place of the run's bare exception so the error message
    carries the failing cell's coordinates — run index, seed label and
    scenario name — making a failed sweep cell identifiable and
    re-schedulable from the parent process (a raw pool traceback names
    neither the seed nor the scenario).
    """

    def __init__(
        self,
        message: str,
        run_index: int | None = None,
        seed_label: int | None = None,
        scenario_name: str | None = None,
    ) -> None:
        super().__init__(message)
        self.run_index = run_index
        self.seed_label = seed_label
        self.scenario_name = scenario_name

    def __reduce__(self):
        # Keep the cell coordinates across the pool's pickle round-trip
        # (the default exception reduction only replays ``args``).
        message = self.args[0] if self.args else ""
        return (
            type(self),
            (message, self.run_index, self.seed_label, self.scenario_name),
        )


def validate_execution(
    backend: str,
    workers: int | None = None,
    shards: int | None = None,
    cache="off",
    scenario: Scenario | None = None,
):
    """Check ``run_many``'s execution options; returns the resolved cache.

    ``run_many`` and :class:`~repro.experiments.common.ExperimentConfig`
    both call this, so an invalid combination fails the same way when a
    config is built as when a run starts.  The shard count is checked
    against the device count only when ``scenario`` is given, and a backend
    is constructed (to ask whether it supports ``shards=``) only when
    ``shards`` is set.
    """
    if backend not in available_backends():
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        )
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not hasattr(get_backend(backend), "with_shards"):
            raise ValueError(
                f"backend {backend!r} does not support shards=; "
                "use backend='sharded'"
            )
        if scenario is not None and shards > len(scenario.device_specs):
            num_devices = len(scenario.device_specs)
            raise ValueError(
                f"shards={shards} exceeds the scenario's {num_devices} "
                "device(s); every shard needs at least one device — use "
                f"shards<={num_devices}"
            )
        if workers is not None and workers > shards:
            raise ValueError(
                f"workers={workers} exceeds shards={shards}: each worker "
                "process drives at least one whole shard, so the extra "
                f"workers would sit idle — use workers<={shards} or raise "
                "shards="
            )
    # Imported lazily: the registry imports this module.
    from repro.registry.store import resolve_cache

    return resolve_cache(cache)


def _cell_failure(
    exc: Exception, index: int, run_seed: RunSeed, scenario: Scenario
) -> RunFailure:
    return RunFailure(
        f"run {index} (seed {run_seed.label}) of scenario "
        f"{scenario.name!r} failed: {type(exc).__name__}: {exc}",
        run_index=index,
        seed_label=run_seed.label,
        scenario_name=scenario.name,
    )


def _run_batch(batch, groups, executor, reducer, record_probabilities) -> list:
    """One batch's ``(payload, wall_seconds)`` per cell, in batch order.

    ``batch`` is ``(reason, cells)``: ``cells`` lists ``(group number, run
    index)`` pairs into ``groups``' ``(scenario, base seed)`` pairs, and
    ``reason`` is ``None`` for a stack, which executes as row blocks of one
    engine (:meth:`execute_stack`), or why its one cell runs solo.  The
    payload is the full result, or its reduction; executors that can reduce
    *inside* their execution (the sharded backend's windowed in-shard
    reduction) expose ``map_reduced``, and the payload is identical to
    ``reducer.map(full_result)`` either way.  Failures are wrapped into
    :class:`RunFailure` naming the cell; the wall time (a stack's is shared
    equally by its runs) lets the registry record how expensive the
    artifact was to produce.
    """
    reason, pairs = batch
    cells = [
        (groups[number][0], _spawned_run_seed(groups[number][1], index), index)
        for number, index in pairs
    ]
    mapper = None
    started = time.perf_counter()
    if reason is None:
        try:
            results = iter(
                executor.execute_stack(
                    [(scenario, run_seed) for scenario, run_seed, _ in cells],
                    record_probabilities,
                )
            )
        except Exception:
            # Name the failing cell: replayed alone, it raises its RunFailure.
            for pair in pairs:
                _run_batch(
                    ("replay", [pair]), groups, executor, None, record_probabilities
                )
            raise
        if len(cells) > 1:
            # The stack's phase profile covers every stacked run, so it
            # belongs to none of the cells' registry entries.
            take_run_summary()
    else:
        if reducer is not None:
            mapper = getattr(executor, "map_reduced", None)
        # Lazy: the solo run executes at ``next`` below, where its failure
        # is named.
        results = (
            executor.execute(scenario, seed, record_probabilities=record_probabilities)
            for scenario, seed, _ in cells
        )
    payloads = []
    for scenario, run_seed, index in cells:
        try:
            if mapper is not None:
                payload = mapper(scenario, run_seed, reducer, record_probabilities)
            else:
                payload = next(results)
                if reducer is not None:
                    payload = reducer.map(payload)
        except Exception as exc:
            raise _cell_failure(exc, index, run_seed, scenario) from exc
        payloads.append(payload)
    seconds = (time.perf_counter() - started) / len(cells)
    return [(payload, seconds) for payload in payloads]


#: Per-worker run context, installed once per process by :func:`_init_worker`.
_WORKER_CONTEXT: dict = {}


def _init_worker(context: dict) -> None:
    """Pool initializer: receive the run context once per worker process."""
    _WORKER_CONTEXT.update(context)


def _run_job(batch) -> list:
    """Pool job: :func:`_run_batch` on the worker-resident context."""
    return _run_batch(batch, **_WORKER_CONTEXT)


class RunCells:
    """One scenario's ``runs`` cells in the run loop (:func:`run_cells`).

    Holds the registry keys (when caching) and the payloads as they land.
    """

    def __init__(self, scenario: Scenario, runs: int, base_seed: int = 0) -> None:
        self.scenario = scenario
        self.runs = runs
        self.base_seed = base_seed
        self.keys: list = []
        self.payloads: dict = {}

    def missing(self) -> list[int]:
        return [index for index in range(self.runs) if index not in self.payloads]

    def finish(self, index: int, payload, seconds: float, store) -> None:
        self.payloads[index] = payload
        if store is not None:
            store.store(self.keys[index], payload, wall_seconds=seconds)

    def output(self, reducer):
        """The payloads in run order, or the reducer's finalized left fold."""
        ordered = [self.payloads[index] for index in range(self.runs)]
        if reducer is None:
            return ordered
        return reducer.finalize(functools.reduce(reducer.merge, ordered))


#: Recorder bytes one stack of runs may hold.  Missing cells with identical
#: physics run as row blocks of one engine up to this size, so a reduced run
#: loop peaks at one stack's records; a run larger than this stays solo.
STACK_BUDGET_BYTES = 32 * 2**20


def _recorder_bytes(scenario: Scenario, record_probabilities: bool) -> int:
    """A run's recorder: int64 choices, float64 rates and delays, boolean
    switches and activity, and a float64 per network with probabilities."""
    per_cell = 26 + (8 * len(scenario.networks) if record_probabilities else 0)
    return scenario.num_devices * scenario.horizon_slots * per_cell


def _solo_reason(scenario: Scenario, executor, size: int) -> str | None:
    """Why ``scenario``'s cells cannot stack, or ``None`` when they can."""
    # Imported lazily: the sharded package imports the backends package.
    from repro.sim.sharded.engine import closed_form_rates

    if not hasattr(executor, "execute_stack"):
        return "backend"
    if not closed_form_rates(scenario):
        return "gain_model"
    if size > STACK_BUDGET_BYTES:
        return "budget"
    return None


def _plan(pending, executor, record_probabilities: bool, width: int) -> list:
    """The missing cells of ``pending`` as batches ``(reason, cells)``.

    A cell that cannot stack (:func:`_solo_reason`) is a batch of one with
    its reason.  The others, grouped by
    :func:`~repro.sim.sharded.executor.stack_physics`, are cut in order into
    stacks (reason ``None``) of at most :data:`STACK_BUDGET_BYTES` of records
    and at most ``ceil(N / width)`` of the call's ``N`` stackable cells, so
    each of ``width`` pool workers gets a stack.  The stacks come first.
    Each batch is recorded as a ``run_solo`` or ``run_stack`` telemetry
    event.
    """
    # Imported lazily: the sharded package imports the backends package.
    from repro.sim.sharded.executor import stack_physics

    solo: list = []
    by_physics: list[tuple[tuple, list]] = []
    for number, group in enumerate(pending):
        size = _recorder_bytes(group.scenario, record_probabilities)
        reason = _solo_reason(group.scenario, executor, size)
        if reason is not None:
            solo += [(reason, [(number, index)]) for index in group.missing()]
            continue
        physics = stack_physics(group.scenario)
        cells = next((cells for known, cells in by_physics if known == physics), None)
        if cells is None:
            cells = []
            by_physics.append((physics, cells))
        cells += [(number, index, size) for index in group.missing()]
    cap = -(-sum(len(cells) for _, cells in by_physics) // width)
    batches: list = []
    for _, cells in by_physics:
        stack, filled = [], 0
        for number, index, size in cells:
            if stack and (filled + size > STACK_BUDGET_BYTES or len(stack) == cap):
                batches.append((None, stack))
                stack, filled = [], 0
            stack.append((number, index))
            filled += size
        batches.append((None, stack))
    batches += solo

    telemetry = get_telemetry()
    if telemetry is not None:
        for reason, cells in batches:
            if reason is None:
                numbers = [number for number, _ in cells]
                telemetry.event(
                    "run_stack",
                    runs=len(cells),
                    rows=sum(pending[n].scenario.num_devices for n in numbers),
                    scenarios=len(set(numbers)),
                )
            else:
                ((number, index),) = cells
                telemetry.event(
                    "run_solo",
                    reason=reason,
                    scenario=pending[number].scenario.name,
                    run_index=index,
                )
    return batches


def run_cells(
    groups: Sequence[RunCells],
    executor: SlotExecutor,
    reducer=None,
    record_probabilities: bool = True,
    workers: int | None = None,
    store=None,
    reuse: bool = False,
) -> None:
    """The run loop: every missing cell of ``groups``, in batches.

    With a ``store``, each group's cells are fingerprinted and, when
    ``reuse``, loaded from it first; fresh payloads are stored as they
    land (a stack of several runs, and a pool, store them without a phase
    profile).  The missing cells are planned once into stacks and solo
    cells (:func:`_plan`), and one loop finishes them in batch order, run
    in process or, with ``workers > 1`` and more than one batch, on one
    process pool; every payload equals the cell's solo payload.
    """
    if store is not None:
        from repro.registry.fingerprint import grid_keys
        from repro.registry.store import MISS

        # RunStore.store attaches the last recorded run summary; one that an
        # earlier, uncached run left behind belongs to no entry of this call.
        take_run_summary()
        for group in groups:
            group.keys = grid_keys(
                group.scenario,
                base_seed=group.base_seed,
                runs=group.runs,
                record_probabilities=record_probabilities,
                reducer=reducer,
            )
            if reuse:
                for index, key in enumerate(group.keys):
                    hit = store.load(key.fingerprint)  # CacheError when corrupt
                    if hit is not MISS:
                        group.payloads[index] = hit

    pending = [group for group in groups if group.missing()]
    batches = _plan(pending, executor, record_probabilities, workers or 1)
    context = {
        "groups": [(group.scenario, group.base_seed) for group in pending],
        "executor": executor,
        "reducer": reducer,
        "record_probabilities": record_probabilities,
    }
    width = min(workers or 1, len(batches))
    if width > 1:
        pool = ProcessPoolExecutor(
            max_workers=width, initializer=_init_worker, initargs=(context,)
        )
        # One job per stack, queued first so that each worker starts on
        # one; the solo cells after them go out about four jobs per worker.
        stacks = sum(reason is None for reason, _ in batches)
        chunk = -(-(len(batches) - stacks) // (4 * width))
        finished = itertools.chain(
            pool.map(_run_job, batches[:stacks]),
            pool.map(_run_job, batches[stacks:], chunksize=max(chunk, 1)),
        )
    else:
        pool = None
        finished = map(functools.partial(_run_batch, **context), batches)
    try:
        for (_, cells), payloads in zip(batches, finished):
            for (number, index), (payload, seconds) in zip(cells, payloads):
                pending[number].finish(index, payload, seconds, store)
    finally:
        if pool is not None:
            # After a failure, jobs not yet started would only delay it.
            pool.shutdown(cancel_futures=True)


def run_many(
    scenario: Scenario,
    runs: int,
    base_seed: int = 0,
    backend: str = DEFAULT_BACKEND,
    workers: int | None = None,
    reduce=None,
    record_probabilities: bool | None = None,
    shards: int | None = None,
    cache="off",
):
    """Run ``scenario`` ``runs`` times with independently spawned seeds.

    Parameters
    ----------
    backend:
        Execution backend for every run (see :func:`repro.sim.backends.available_backends`).
    workers:
        ``None``, ``0`` or ``1`` runs in-process: on the ``vectorized``
        backend, equal-share runs advance stacked as row blocks of one
        engine (see "One run loop, over cells" above), otherwise one at a
        time.  Any larger value runs the same batches on a
        ``ProcessPoolExecutor`` with up to that many workers, the stacks
        split so that each worker gets one; results come back in run
        order and are bit-identical to a serial run.  With ``shards=``
        set, the budget moves *inside* each run instead: runs execute
        serially and ``workers`` becomes the sharded backend's
        worker-process count.
    reduce:
        ``None`` returns the full per-run results as a list.  A
        :class:`~repro.analysis.reducers.Reducer` instance (or built-in
        reducer name, e.g. ``"summary"``) is applied to each run *where it
        executes* — inside the sharded engine's shards (shard-capable
        reducers), or right after its run or stack, in process or in the
        pool worker — and ``run_many`` returns the reducer's finalized
        merge instead of a list, keeping peak memory at one stack of
        records (at most :data:`STACK_BUDGET_BYTES`) per process plus
        kilobyte payloads.
    record_probabilities:
        Whether runs record the per-slot probability tensor.  Defaults to
        ``True`` for full results and to the reducer's
        ``needs_probabilities`` when reducing.
    shards:
        Shard the device population of every run into this many blocks
        (requires a backend that supports it, i.e. ``backend="sharded"``;
        see :mod:`repro.sim.sharded`).  Checkpoints and resume of one
        sharded run are settings of
        :class:`~repro.sim.sharded.ShardedSlotExecutor`, not of this call.
    cache:
        ``"off"`` (default) always simulates.  ``"reuse"`` consults the run
        registry (:mod:`repro.registry`): cells whose canonical fingerprint
        has a committed artifact are loaded instead of simulated, only the
        missing cells execute, fresh payloads are committed back, and the
        merged output is bit-identical to a cold run.  ``"refresh"``
        recomputes every cell and overwrites the store (the escape hatch
        when the registry refuses a stale/corrupt entry).  A
        :class:`~repro.registry.CacheSpec` selects an explicit store root.
        Requires ``reduce=`` — the registry persists reducer payloads, not
        full slot-by-slot records.  This is how an interrupted multi-run
        experiment resumes: rerun it with ``cache="reuse"`` and only the
        runs that never committed execute.

    Progress is telemetry: with ``REPRO_TELEMETRY_DIR`` set, every run
    writes a ``run_start``/``run_end`` pair, whatever its backend, and the
    call a ``run_many_start``/``run_many_end`` pair around them
    (``python -m repro.telemetry tail --follow`` prints them live).
    Invalid options raise ``ValueError`` before any run starts (see
    :func:`validate_execution`); a failing run raises :class:`RunFailure`
    naming its run index, seed label and scenario.
    """
    return run_many_scenarios(
        {0: scenario},
        runs,
        base_seed,
        backend=backend,
        workers=workers,
        reduce=reduce,
        record_probabilities=record_probabilities,
        shards=shards,
        cache=cache,
    )[0]


def run_many_scenarios(
    scenarios: Mapping[Hashable, Scenario],
    runs: int,
    base_seed: int = 0,
    backend: str = DEFAULT_BACKEND,
    workers: int | None = None,
    reduce=None,
    record_probabilities: bool | None = None,
    shards: int | None = None,
    cache="off",
) -> dict:
    """:func:`run_many` for every scenario of ``scenarios``, in one run loop.

    Returns ``{key: output}``, each output exactly what ``run_many`` returns
    for that scenario with the same arguments: the options are validated
    per scenario before any run starts, and every scenario's runs draw
    from the same spawned seeds as they would alone.  All the scenarios'
    cells go to one :func:`run_cells` call, so on the ``vectorized``
    backend the runs of every scenario of equal physics advance as one
    engine.  One ``run_many_start``/``run_many_end`` telemetry pair
    brackets the call.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    # Every scenario is checked (shards against its device count) before
    # any run starts.
    for scenario in scenarios.values():
        validate_execution(backend, workers=workers, shards=shards, scenario=scenario)
    cache_spec = validate_execution(backend, workers=workers, shards=shards, cache=cache)
    # Imported lazily: repro.analysis modules import repro.sim.metrics, so a
    # top-level import here would be circular through repro.sim.__init__.
    from repro.analysis.reducers import resolve_reducer

    reducer = resolve_reducer(reduce)
    if cache_spec.enabled and reducer is None:
        raise ValueError(
            "cache='reuse'/'refresh' requires reduce= — the run registry "
            "persists reducer payloads, not full slot-by-slot results"
        )
    if record_probabilities is None:
        record_probabilities = (
            reducer.needs_probabilities if reducer is not None else True
        )
    executor = get_backend(backend)
    pool_workers = workers
    if shards is not None:
        # The worker budget parallelizes within each sharded run; the run
        # loop itself goes serial (nesting both pools would oversubscribe).
        executor = executor.with_shards(
            shards, workers=workers if workers and workers > 1 else None
        )
        pool_workers = None

    telemetry = get_telemetry()
    if telemetry is not None:
        names = [getattr(scenario, "name", None) for scenario in scenarios.values()]
        telemetry.event(
            "run_many_start",
            runs=runs,
            backend=backend,
            scenario=names[0] if len(names) == 1 else None,
            scenarios=len(names),
            workers=workers,
            shards=shards,
        )
        started = time.perf_counter()

    groups = {
        key: RunCells(scenario, runs, base_seed)
        for key, scenario in scenarios.items()
    }
    run_cells(
        list(groups.values()),
        executor,
        reducer,
        record_probabilities,
        workers=pool_workers,
        store=cache_spec.resolve_store() if cache_spec.enabled else None,
        reuse=cache_spec.mode == "reuse",
    )
    outputs = {key: group.output(reducer) for key, group in groups.items()}
    if telemetry is not None:
        telemetry.event(
            "run_many_end",
            runs=runs,
            seconds=round(time.perf_counter() - started, 6),
        )
    return outputs
