"""Floor runner: the speed and correctness floors of the fast execution tiers.

``--suite`` picks one row of the ``SUITES`` table (default ``backend``):

``backend``    event vs vectorized single runs and run_many rows on setting 1
``kernels``    batched policy kernels vs the scalar path at fig06 scale
``results``    RSS growth of a summary-reduced sweep; columnar vs dict result assembly
``churn``      vectorized vs event with a join or a departure on every slot
``stack``      run_many's stacked runs vs the same runs one at a time
``shard``      sharded vs vectorized at 100k devices, plus checkpoint overhead
``faults``     kill and recover byte-identically, refuse a corrupt checkpoint, catch a hang
``telemetry``  telemetry on vs off on a sharded run; the event log must validate
``registry``   cold, warm and partly warm registry sweeps; warm simulates nothing

Usage::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        [--suite NAME] [flags] [--json PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import pickle
import shutil
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

from repro.analysis.reducers import SummaryReducer
from repro.experiments.megascale import peak_rss_bytes
from repro.profiling import run_provenance
from repro.sim.backends import RunSeed, VectorizedSlotExecutor, get_backend
from repro.sim.metrics import SimulationResult
from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import (
    per_slot_churn_scenario,
    per_slot_churn_windows,
    setting1_scenario,
)
from repro.sim.sharded import (
    CheckpointConfig,
    CheckpointError,
    CorruptCheckpoint,
    DelayExchange,
    FaultPlan,
    HomogeneousPopulation,
    KillWorker,
    ShardFailureError,
    ShardedSlotExecutor,
    SupervisionConfig,
)

#: Speed ratios only gate on machines with at least this many cores: a
#: single-core host times both legs under contention with everything else
#: on the machine, so a ratio measured there is noise, not a regression.
FLOOR_MIN_CPUS = 2


class Gate(NamedTuple):
    """One floor: ``value >= threshold`` (``bound="min"``), ``<=`` (``"max"``)
    or ``is True`` (``"true"``).  ``threshold`` is a number or the flag that
    sets it; the gate does not apply on fewer than ``min_cpus`` cores, nor
    where the measurement marks it not applicable."""

    name: str
    bound: str
    threshold: float | str | None = None
    min_cpus: int = 1


class Suite(NamedTuple):
    """One table row: ``measure`` gets the flags except the thresholds and
    ``attach_megascale``, and returns ``(scenario, rows, values,
    not_applicable)``: each gate's value, and why a gate cannot be judged."""

    measure: Callable[..., tuple]
    flags: dict
    gates: tuple[Gate, ...]


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _legs(*names):
    """Registered backends as timing legs: ``(label, executor)`` pairs."""
    return [(name, get_backend(name)) for name in names]


def _time_pairs(policies, make_scenario, legs, repeats: int):
    """Single runs of each policy on a baseline and a candidate leg (a
    ``(label, executor)`` pair), each on a freshly built scenario: the rows,
    and each candidate speedup."""
    rows, speedups = [], {}
    for policy in policies:
        for label, executor in legs:
            scenario = make_scenario(policy=policy)
            seconds = _best_seconds(lambda: executor.execute(scenario, 0), repeats)
            rows.append({
                "policy": policy,
                "backend": label,
                "mode": "single_run",
                "seconds": seconds,
                "slots_per_second": scenario.horizon_slots / seconds,
            })
        speedup = rows[-1]["slots_per_second"] / rows[-2]["slots_per_second"]
        speedups[policy] = rows[-1]["speedup"] = speedup
    return rows, speedups


def _exp3_or_weakest(speedups: dict) -> float:
    # The kernels and churn floors are stated for EXP3; without it the
    # weakest measured policy keeps the floor a lower bound.
    return speedups["exp3"] if "exp3" in speedups else min(speedups.values())


def _population(tag, policy, devices, slots, detail="constant delays"):
    """The megascale run's uniform, constant-delay population, and its label."""
    population = HomogeneousPopulation(
        num_devices=devices,
        policy=policy,
        horizon_slots=slots,
        name=f"{tag}_bench_d{devices}",
    )
    label = f"uniform population ({devices} devices, {slots} slots, {policy}, {detail})"
    return population, label


def _vectorized_run(scenario):
    """One single-process run that skips the probability tensor."""
    return run_simulation(scenario, seed=0, backend="vectorized", record_probabilities=False)


def measure_backend(policies, runs, workers, repeats):
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    make = functools.partial(setting1_scenario, num_devices=30, horizon_slots=600)
    rows, speedups = [], {}
    for policy in policies:
        pair, speedup = _time_pairs([policy], make, _legs("event", "vectorized"), repeats)
        rows += pair
        speedups.update(speedup)
        scenario = make(policy=policy)
        start = time.perf_counter()
        run_many(scenario, runs=runs, backend="vectorized", workers=workers)
        seconds = time.perf_counter() - start
        # Labelled with the pool width run_many really uses; on one core
        # this is a serial row that documents the dispatch overhead.
        pool = min(workers, runs) if workers > 1 and runs > 1 else 0
        rows.append({
            "policy": policy,
            "backend": f"vectorized+workers{pool}" if pool > 1 else "vectorized",
            "mode": f"run_many(runs={runs})",
            "seconds": seconds,
            "slots_per_second": runs * 600 / seconds,
        })
    # The floor is a statement about the stationary policies, whose slot
    # loop is pure physics and recording.
    stationary = {p: speedups[p] for p in ("fixed_random", "centralized") if p in speedups}
    values = {"vectorized_speedup": max((stationary or speedups).values())}
    not_applicable = {"vectorized_speedup": "no stationary policy measured"}
    scenario = "setting1 (30 devices, 600 slots)"
    return scenario, rows, values, {} if stationary else not_applicable


def measure_kernels(policies, devices, slots, repeats):
    make = functools.partial(setting1_scenario, num_devices=devices, horizon_slots=slots)
    # The scalar-path executor is the baseline the kernel layer is measured by.
    legs = [("vectorized-nokernel", VectorizedSlotExecutor(use_kernels=False))]
    rows, speedups = _time_pairs(policies, make, legs + _legs("vectorized"), repeats)
    scenario = f"setting1 ({devices} devices, {slots} slots)"
    return scenario, rows, {"kernel_speedup": _exp3_or_weakest(speedups)}, {}


def _construction_seconds(result: SimulationResult, iterations: int) -> tuple[float, float]:
    """Per-call seconds to assemble a result: columnar handoff vs dict scatter."""
    device_ids = result.device_ids
    blocks = (
        result.choices_2d,
        result.rates_2d,
        result.delays_2d,
        result.switches_2d,
        result.active_2d,
        result.probabilities_3d,
    )

    def build_columnar():
        return SimulationResult(
            scenario_name=result.scenario_name,
            seed=result.seed,
            num_slots=result.num_slots,
            slot_duration_s=result.slot_duration_s,
            networks=result.networks,
            device_ids=device_ids,
            policy_names=result.policy_names,
            choices_2d=blocks[0],
            rates_2d=blocks[1],
            delays_2d=blocks[2],
            switches_2d=blocks[3],
            active_2d=blocks[4],
            probabilities_3d=blocks[5],
            resets=result.resets,
        )

    def build_dict_layout():
        # The seed layout: six per-device dicts of row views (what the
        # recorder used to scatter into before the columnar refactor).
        row_of = {device_id: row for row, device_id in enumerate(device_ids)}
        return tuple(
            {device_id: block[row_of[device_id]] for device_id in device_ids}
            for block in blocks
        )

    columnar = _best_seconds(lambda: [build_columnar() for _ in range(iterations)], 3)
    dict_layout = _best_seconds(
        lambda: [build_dict_layout() for _ in range(iterations)], 3
    )
    return columnar / iterations, dict_layout / iterations


def measure_results(policy, devices, slots, runs):
    """Streaming-reduction memory and columnar result construction.

    The reduced sweep runs serially on purpose: the serial ``reduce=`` path
    frees each run's record before executing the next one, so peak RSS
    growth beyond one resident run means the streaming contract regressed.
    """
    scenario = setting1_scenario(policy=policy, num_devices=devices, horizon_slots=slots)
    start = time.perf_counter()
    single = run_simulation(scenario, seed=0, backend="vectorized")
    single_seconds = time.perf_counter() - start
    # Read before the pickle below, which briefly holds a second copy of
    # the record: a baseline taken after it would already sit at the
    # sweep's peak and hide its growth.
    baseline_rss = peak_rss_bytes(include_children=False)
    full_payload_bytes = len(pickle.dumps(single, protocol=pickle.HIGHEST_PROTOCOL))
    columnar_s, dict_s = _construction_seconds(single, iterations=100)

    start = time.perf_counter()
    summaries = run_many(scenario, runs=runs, backend="vectorized", reduce="summary")
    reduced_seconds = time.perf_counter() - start
    peak_rss = peak_rss_bytes(include_children=False)
    reduced_payload_bytes = len(
        pickle.dumps(summaries.rows, protocol=pickle.HIGHEST_PROTOCOL)
    )
    growth = None if baseline_rss is None else max(peak_rss - baseline_rss, 0)
    rows = [
        {
            "mode": "single_run_full_record",
            "seconds": single_seconds,
            "result_bytes": single.nbytes,
            "pickled_payload_bytes": full_payload_bytes,
        },
        {
            "mode": f"run_many(runs={runs}, reduce=summary)",
            "seconds": reduced_seconds,
            "peak_rss_growth_bytes": growth,
            "pickled_payload_bytes": reduced_payload_bytes,
            "payload_shrink_factor": full_payload_bytes / max(reduced_payload_bytes, 1),
        },
        {
            "mode": "result_construction",
            "columnar_seconds_per_call": columnar_s,
            "dict_scatter_seconds_per_call": dict_s,
            "speedup": dict_s / columnar_s,
        },
    ]
    values = {
        "rss_growth_records": None if growth is None else growth / single.nbytes,
        "construction_speedup": dict_s / columnar_s,
    }
    not_applicable = {"rss_growth_records": "resource cannot be imported"}
    scenario = f"setting1 ({devices} devices, {slots} slots, {policy})"
    return scenario, rows, values, not_applicable if growth is None else {}


def measure_churn(policies, devices, repeats):
    make = functools.partial(per_slot_churn_scenario, num_devices=devices)
    rows, speedups = _time_pairs(policies, make, _legs("event", "vectorized"), repeats)
    horizon = per_slot_churn_windows(devices)[1]
    scenario = f"per_slot_churn ({devices} devices, {horizon} slots, join/leave every slot)"
    return scenario, rows, {"churn_speedup": _exp3_or_weakest(speedups)}, {}


def measure_stack(policies, devices, runs, slots, repeats):
    """Stacked ``run_many`` vs the same runs one at a time.

    Each policy's ``runs`` setting-1 runs go through ``run_many(...,
    reduce="summary")``, which advances them as row blocks of one engine;
    the baseline runs the same spawned seeds one at a time through the
    vectorized executor and reduces them the same way.  The summaries must
    be identical.
    """
    reducer = SummaryReducer()
    executor = get_backend("vectorized")
    seeds = [
        RunSeed(root, label)
        for label, root in enumerate(np.random.SeedSequence(0).spawn(runs))
    ]
    rows, identical, solo_total, stacked_total = [], True, 0.0, 0.0
    for policy in policies:
        scenario = setting1_scenario(
            policy=policy, num_devices=devices, horizon_slots=slots
        )
        outputs = {}

        def solo():
            outputs["solo"] = reducer.reduce_all(
                executor.execute(scenario, seed, record_probabilities=False)
                for seed in seeds
            )

        def stacked():
            outputs["stacked"] = run_many(
                scenario, runs, backend="vectorized", reduce=reducer
            )

        solo_seconds = _best_seconds(solo, repeats)
        stacked_seconds = _best_seconds(stacked, repeats)
        identical &= outputs["solo"].rows == outputs["stacked"].rows
        solo_total += solo_seconds
        stacked_total += stacked_seconds
        for mode, seconds in (("solo", solo_seconds), ("stacked", stacked_seconds)):
            rows.append({
                "policy": policy,
                "mode": f"{mode}, {runs} runs, reduce=summary",
                "seconds": seconds,
                "device_slots_per_second": runs * devices * slots / seconds,
            })
        rows[-1]["speedup"] = solo_seconds / stacked_seconds
    values = {"identical": identical, "stack_speedup": solo_total / stacked_total}
    scenario = f"setting1 ({devices} devices, {slots} slots, {runs} runs)"
    return scenario, rows, values, {}


def measure_shard(policy, devices, slots, workers, repeats):
    """Sharded population engine vs. single-process vectorized execution.

    Both sides run the same summary-reduced run.  The sharded legs run
    *first*: ``ru_maxrss`` is a high-water mark, so after the vectorized
    leg (which materialises the full record) it would only ever report the
    vectorized footprint.
    """
    if workers is None:
        workers = max(1, min(os.cpu_count() or 1, 8))
    population, label = _population("shard", policy, devices, slots)
    scenario = population.build_shard(0, devices)
    reducer = SummaryReducer()

    baseline_rss = peak_rss_bytes(include_children=False)
    executor = ShardedSlotExecutor(shards=workers, workers=workers, dtype="float32")
    run = functools.partial(executor.execute_population, population, 0, reducer)
    sharded_seconds = _best_seconds(run, repeats)
    sharded_rss = peak_rss_bytes(include_children=False)
    try:
        import resource

        worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * (
            1 if sys.platform == "darwin" else 1024
        )
    except ImportError:  # non-POSIX platform
        worker_rss = None

    # The horizon's final slot always checkpoints, so a 100-slot run at a
    # 100-slot cadence measures exactly one snapshot.
    with tempfile.TemporaryDirectory(prefix="shard_bench_ckpt_") as ckpt_dir:
        checkpointed_seconds = _best_seconds(
            lambda: executor.with_durability(
                checkpoint=CheckpointConfig(every_slots=100, dir=ckpt_dir)
            ).execute_population(population, 0, reducer),
            repeats,
        )
    overhead = (checkpointed_seconds - sharded_seconds) / sharded_seconds

    vectorized_seconds = _best_seconds(
        lambda: reducer.map(_vectorized_run(scenario)), repeats
    )
    legs = (
        (f"sharded (shards={workers}, workers={workers}, float32)",
         "in-shard windowed reduce=summary", sharded_seconds,
         {"baseline_rss_bytes": baseline_rss, "parent_peak_rss_bytes": sharded_rss,
          "worker_peak_rss_bytes": worker_rss}),
        ("sharded + checkpoint every 100 slots",
         "in-shard windowed reduce=summary, durable", checkpointed_seconds,
         {"checkpoint_overhead": overhead}),
        # The high-water mark after every leg: the vectorized full record
        # dominates it, which is the comparison's point.
        ("vectorized", "single process, reduce=summary", vectorized_seconds,
         {"parent_peak_rss_bytes": peak_rss_bytes(include_children=False)}),
    )
    rows = [
        {
            "backend": backend,
            "mode": mode,
            "seconds": seconds,
            "devices_per_second": devices / seconds,
            "device_slots_per_second": devices * slots / seconds,
            **extra,
        }
        for backend, mode, seconds, extra in legs
    ]
    values = {
        "sharded_speedup": vectorized_seconds / sharded_seconds,
        "checkpoint_overhead": overhead,
    }
    not_applicable = {"sharded_speedup": "fewer than 4 workers"} if workers < 4 else {}
    return label, rows, values, not_applicable


def measure_faults(devices, slots, workers):
    """Kill and recover, refuse a corrupted checkpoint, bound a hang."""
    shards = max(2, workers)
    every = max(1, slots // 4)
    kill_slot = max(2, (2 * slots) // 3)
    detail = f"shards={shards}, workers={workers}"
    population, label = _population("faults", "exp3", devices, slots, detail)
    reducer = SummaryReducer()
    sharded = functools.partial(
        ShardedSlotExecutor, shards=shards, dtype="float32", window_slots=32
    )

    start = time.perf_counter()
    reference = sharded(workers=workers).execute_population(population, 0, reducer)
    clean_seconds = time.perf_counter() - start

    # Hard-kill a worker mid-run; supervision must restart from the last
    # checkpoint and the recovered payload must be byte-identical.
    with tempfile.TemporaryDirectory(prefix="faults_bench_") as tmp:
        executor = sharded(
            workers=workers,
            checkpoint=CheckpointConfig(every_slots=every, dir=tmp),
            fault_plan=FaultPlan(
                (KillWorker(worker=workers - 1, slot=kill_slot, hard=True),)
            ),
            supervision=SupervisionConfig(
                barrier_timeout_s=60.0, backoff_s=0.05, poll_interval_s=0.2
            ),
        )
        start = time.perf_counter()
        recovered = executor.execute_population(population, 0, reducer)
        recovery_seconds = time.perf_counter() - start
    recovery_ok = pickle.dumps(reference) == pickle.dumps(recovered)

    # A corrupted checkpoint must be refused on resume, never silently
    # restored.
    corruption_ok = False
    with tempfile.TemporaryDirectory(prefix="faults_bench_") as tmp:
        with contextlib.suppress(ShardFailureError):
            sharded(
                workers=1,
                checkpoint=CheckpointConfig(every_slots=every, dir=tmp),
                fault_plan=FaultPlan(
                    (
                        CorruptCheckpoint(slot=every, shard=0),
                        KillWorker(worker=0, slot=min(every + 1, slots)),
                    )
                ),
                supervision=SupervisionConfig(max_restarts=0, backoff_s=0.05),
            ).execute_population(population, 0, reducer)
        try:
            sharded(workers=1, resume_from=tmp).execute_population(
                population, 0, reducer
            )
        except CheckpointError as exc:
            corruption_ok = "corrupt" in str(exc)

    # A stalled worker must fail the run within the barrier timeout with
    # per-worker diagnostics, never hang.
    timeout_ok = False
    start = time.perf_counter()
    try:
        sharded(
            workers=workers,
            fault_plan=FaultPlan((DelayExchange(worker=0, slot=5, seconds=30.0),)),
            supervision=SupervisionConfig(
                barrier_timeout_s=2.0, backoff_s=0.05, poll_interval_s=0.2
            ),
        ).execute_population(population, 0, reducer)
    except ShardFailureError as exc:
        timeout_ok = "slot 5" in str(exc)
    detection_seconds = time.perf_counter() - start

    rows = [
        {
            "check": "hard-kill worker, restart from checkpoint",
            "clean_seconds": clean_seconds,
            "recovery_seconds": recovery_seconds,
        },
        {"check": "corrupted checkpoint refused on resume"},
        {
            "check": "hung worker detected within barrier timeout",
            "detection_seconds": detection_seconds,
        },
    ]
    values = {
        "recovery_byte_identical": recovery_ok,
        "corruption_refused": corruption_ok,
        "hang_detected": timeout_ok,
    }
    return label, rows, values, {}


def measure_telemetry(policy, devices, slots, workers, repeats):
    """Telemetry enabled vs. disabled on the same sharded run.

    The enabled leg is also a functional check: its event log must validate
    against the versioned schema, ``python -m repro.telemetry summary`` must
    exit 0 over it, and ``report`` must see every worker finish.
    """
    from repro.telemetry import read_events, set_telemetry_dir, validate_directory
    from repro.telemetry.__main__ import build_report, main as telemetry_main

    if workers is None:
        workers = max(1, min(os.cpu_count() or 1, 4))
    detail = f"shards={workers}, workers={workers}"
    population, label = _population("telemetry", policy, devices, slots, detail)
    reducer = SummaryReducer()
    executor = ShardedSlotExecutor(shards=workers, workers=workers, dtype="float32")
    run = functools.partial(executor.execute_population, population, 0, reducer)

    set_telemetry_dir(None)
    disabled_seconds = _best_seconds(run, repeats)

    telemetry_root = tempfile.mkdtemp(prefix="telemetry_bench_")
    try:
        # Each repeat writes into a fresh directory so repeats don't append
        # to each other's streams; the last one is validated.
        event_dirs = []

        def _enabled():
            event_dirs.append(os.path.join(telemetry_root, f"run{len(event_dirs)}"))
            set_telemetry_dir(event_dirs[-1])
            try:
                return run()
            finally:
                set_telemetry_dir(None)

        enabled_seconds = _best_seconds(_enabled, repeats)
        schema_errors = validate_directory(event_dirs[-1])
        events = read_events(event_dirs[-1])
        workers_done = sum(
            1 for row in build_report(events)["workers"].values() if row.get("done")
        )
        summary_rc = telemetry_main(
            ["--dir", event_dirs[-1], "summary"], out=io.StringIO()
        )
    finally:
        set_telemetry_dir(None)
        shutil.rmtree(telemetry_root, ignore_errors=True)

    log_valid = (
        not schema_errors and bool(events) and summary_rc == 0 and workers_done == workers
    )
    device_slots = devices * slots
    rows = [
        {
            "mode": "telemetry disabled (REPRO_TELEMETRY_DIR unset)",
            "seconds": disabled_seconds,
            "device_slots_per_second": device_slots / disabled_seconds,
        },
        {
            "mode": "telemetry enabled",
            "seconds": enabled_seconds,
            "device_slots_per_second": device_slots / enabled_seconds,
            "events": len(events),
            "schema_errors": len(schema_errors),
            "workers_done": workers_done,
            "summary_exit_code": summary_rc,
        },
    ]
    values = {
        "event_log_valid": log_valid,
        "overhead": (enabled_seconds - disabled_seconds) / disabled_seconds,
    }
    return label, rows, values, {}


def _sweep_canonical_json(report) -> str:
    """A sweep's outputs as canonical JSON: floats print their shortest
    round-trip repr, so equal bytes mean equal bits (raw pickles differ: a
    loaded artifact shares no key-string objects with a fresh one)."""
    rows = {name: list(summaries.rows) for name, summaries in report.results.items()}
    return json.dumps(rows, sort_keys=True)


def measure_registry(policy, devices, slots, runs, workers):
    """Cold vs warm vs partially-warm stability sweep through the registry.

    The sweep covers two device counts (``devices // 2`` and ``devices``)
    times ``runs`` seeds.  Each phase uses a fresh :class:`RunStore` on the
    same root, so its traffic counters count that phase only.
    """
    from repro.registry import CacheSpec, RunStore
    from repro.registry.sweep import expand_grid, run_sweep
    from repro.sim.scenario import scalability_scenario

    device_grid = tuple(sorted({max(2, devices // 2), devices}))
    factory = functools.partial(
        scalability_scenario, num_networks=3, policy=policy, horizon_slots=slots
    )
    cases = expand_grid(factory, {"num_devices": device_grid}, runs=runs)
    cells_total = sum(case.runs for case in cases)
    root = tempfile.mkdtemp(prefix="repro-registry-bench-")
    try:
        def sweep(store: RunStore):
            cache = CacheSpec(mode="reuse", store=store)
            return run_sweep(cases, reduce="stability", cache=cache, workers=workers)

        cold = sweep(RunStore(root))
        warm_store = RunStore(root)
        warm = sweep(warm_store)

        # Partially warm: drop one case's committed cells and sweep again;
        # only those cells may recompute, and the merged output must match.
        partial_store = RunStore(root)
        dropped_case = cases[-1].scenario.name
        dropped = [
            fingerprint
            for fingerprint, meta, _ in partial_store.entries()
            if meta.get("summary", {}).get("scenario") == dropped_case
        ]
        for fingerprint in dropped:
            partial_store.delete(fingerprint)
        partial = sweep(partial_store)

        store_bytes = sum(size for _, _, size in RunStore(root).entries())
        canonical = _sweep_canonical_json(cold)
        bit_identical = (
            _sweep_canonical_json(warm) == canonical
            and _sweep_canonical_json(partial) == canonical
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    rows = [
        {
            "phase": phase,
            "seconds": report.seconds,
            "cells_total": report.cells_total,
            "cells_cached": report.cells_cached,
            "cells_computed": report.cells_computed,
        }
        for phase, report in (("cold", cold), ("warm", warm), ("partial", partial))
    ]
    rows[-1]["store_bytes"] = store_bytes
    values = {
        "zero_simulations": (
            warm.cells_computed == 0 and warm_store.misses == 0 and warm_store.stored == 0
        ),
        "bit_identical": bit_identical,
        "partial_incremental": (
            partial.cells_computed == len(dropped)
            and partial_store.stored == len(dropped)
            and partial.cells_cached == cells_total - len(dropped)
        ),
        "warm_speedup": cold.seconds / max(warm.seconds, 1e-9),
    }
    scenario = (
        f"scalability sweep ({policy}, devices={list(device_grid)}, "
        f"{runs} runs per case, {slots} slots, stability reducer)"
    )
    return scenario, rows, values, {}


SUITES: dict[str, Suite] = {
    "backend": Suite(
        measure_backend,
        {"policies": ("fixed_random", "centralized", "greedy", "smart_exp3"),
         "runs": 3, "workers": None, "repeats": 2},
        (Gate("vectorized_speedup", "min", 3.0, FLOOR_MIN_CPUS),),
    ),
    "kernels": Suite(
        measure_kernels,
        {"policies": ("exp3", "full_information", "smart_exp3"),
         "devices": 100, "slots": 10_000, "repeats": 1, "floor": 5.0},
        (Gate("kernel_speedup", "min", "floor", FLOOR_MIN_CPUS),),
    ),
    "results": Suite(
        measure_results,
        {"policy": "fixed_random", "devices": 100, "slots": 10_000, "runs": 20,
         "rss_factor": 2.0, "floor": 3.0},
        (Gate("rss_growth_records", "max", "rss_factor"),
         Gate("construction_speedup", "min", "floor")),
    ),
    "churn": Suite(
        measure_churn,
        {"policies": ("exp3", "smart_exp3"), "devices": 100, "repeats": 3, "floor": 5.0},
        (Gate("churn_speedup", "min", "floor", FLOOR_MIN_CPUS),),
    ),
    "stack": Suite(
        measure_stack,
        {"policies": ("exp3", "smart_exp3"), "devices": 20, "runs": 10,
         "slots": 300, "repeats": 3, "floor": 2.5},
        (Gate("identical", "true"),
         Gate("stack_speedup", "min", "floor", FLOOR_MIN_CPUS)),
    ),
    "shard": Suite(
        measure_shard,
        {"policy": "exp3", "devices": 100_000, "slots": 100, "workers": None,
         "repeats": 1, "floor": 3.0, "attach_megascale": None},
        # The parallel path cannot beat the serial one on fewer cores.
        (Gate("sharded_speedup", "min", "floor", 4),
         Gate("checkpoint_overhead", "max", 0.15)),
    ),
    "faults": Suite(
        measure_faults,
        {"devices": 2000, "slots": 60, "workers": 2},
        (Gate("recovery_byte_identical", "true"),
         Gate("corruption_refused", "true"),
         Gate("hang_detected", "true")),
    ),
    "telemetry": Suite(
        measure_telemetry,
        {"policy": "exp3", "devices": 20_000, "slots": 150, "workers": None,
         "repeats": 3, "floor": 0.03},
        (Gate("event_log_valid", "true"),
         Gate("overhead", "max", "floor", FLOOR_MIN_CPUS)),
    ),
    "registry": Suite(
        measure_registry,
        {"policy": "smart_exp3_no_reset", "devices": 20, "slots": 400, "runs": 3,
         "workers": None, "floor": 20.0},
        (Gate("zero_simulations", "true"),
         Gate("bit_identical", "true"),
         Gate("partial_incremental", "true"),
         Gate("warm_speedup", "min", "floor", FLOOR_MIN_CPUS)),
    ),
}

#: Every flag a suite may take.  ``--policies`` fills a suite's
#: ``policies``, or its ``policy`` when the suite takes exactly one.
FLAGS = {
    "policies": dict(nargs="+", help="policies to measure"),
    "runs": dict(type=int, help="runs per multi-run leg"),
    "workers": dict(type=int, help="worker processes (and shards, in shard and telemetry)"),
    "repeats": dict(type=int, help="timing repeats; the best one is kept"),
    "devices": dict(type=int, help="device count"),
    "slots": dict(type=int, help="horizon in slots"),
    "floor": dict(type=float, help="threshold of the suite's speed or overhead gate"),
    "rss_factor": dict(type=float, help="allowed peak-RSS growth, in single-run records"),
    "attach_megascale": dict(metavar="PATH", help="embed a megascale --json payload"),
}


def parse_args(argv=None) -> tuple[str, dict, str | None]:
    """The suite name, its flags with the defaults filled in, and ``--json``.

    A flag the suite does not take is a usage error (exit 2) instead of a
    run of some other configuration than the one asked for.
    """
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--suite", choices=tuple(SUITES), default="backend")
    for dest, kwargs in FLAGS.items():
        parser.add_argument("--" + dest.replace("_", "-"), default=None, **kwargs)
    parser.add_argument("--json", default=None, help="also write the JSON payload here")
    args = parser.parse_args(argv)

    suite = SUITES[args.suite]
    options = dict(suite.flags)
    for dest in FLAGS:
        value = getattr(args, dest)
        if value is None:
            continue
        key = "policy" if dest == "policies" and "policy" in suite.flags else dest
        if key not in suite.flags:
            parser.error(
                f"--{dest.replace('_', '-')} does not apply to --suite {args.suite}"
            )
        if key == "policy":
            if len(value) != 1:
                parser.error(f"--suite {args.suite} takes exactly one --policies entry")
            value = value[0]
        options[key] = tuple(value) if key == "policies" else value
    return args.suite, options, args.json


def check_gates(gates, options: dict, values: dict, not_applicable: dict):
    """Judge each gate: the JSON gate records, and the reason each gate
    that does not apply was skipped."""
    cpus = os.cpu_count() or 1
    records, reasons = [], {}
    for gate in gates:
        threshold = gate.threshold
        if isinstance(threshold, str):
            threshold = options[threshold]
        value = values[gate.name]
        reason = not_applicable.get(gate.name)
        if reason is None and cpus < gate.min_cpus:
            reason = f"{cpus} core(s), needs {gate.min_cpus}"
        if reason is not None:
            reasons[gate.name] = f"not applicable: {reason}"
            passed = None
        elif gate.bound == "min":
            passed = bool(value >= threshold)
        elif gate.bound == "max":
            passed = bool(value <= threshold)
        else:
            passed = value is True
        records.append(dict(
            name=gate.name, value=value, bound=gate.bound, threshold=threshold,
            applicable=reason is None, passed=passed,
        ))
    return records, reasons


def _text(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def format_report(payload: dict, reasons: dict) -> str:
    lines = [f"Suite {payload['suite']} on {payload['scenario']}:"]
    for row in payload["rows"]:
        lines.append("  " + "  ".join(f"{k} {_text(v)}" for k, v in row.items()))
    for gate in payload["gates"]:
        need = {"min": ">= ", "max": "<= "}.get(gate["bound"])
        need = f"{need}{_text(gate['threshold'])}" if need else "true"
        verdict = reasons.get(gate["name"]) or ("met" if gate["passed"] else "NOT met")
        lines.append(
            f"Gate {gate['name']}: {_text(gate['value'])} (needs {need}) {verdict}"
        )
    lines.append("Floor met" if payload["meets_floor"] else "Floor NOT met")
    return "\n".join(lines)


def main(argv=None) -> int:
    name, options, json_path = parse_args(argv)
    suite = SUITES[name]
    megascale = options.pop("attach_megascale", None)
    if megascale is not None:
        with open(megascale) as handle:
            megascale = json.load(handle)
    thresholds = {gate.threshold for gate in suite.gates}
    scenario, rows, values, not_applicable = suite.measure(
        **{key: value for key, value in options.items() if key not in thresholds}
    )
    gates, reasons = check_gates(suite.gates, options, values, not_applicable)
    payload = {
        "suite": name,
        "scenario": scenario,
        **run_provenance(),
        "rows": rows,
        "gates": gates,
        "meets_floor": all(gate["passed"] is not False for gate in gates),
    }
    if megascale is not None:
        payload["megascale"] = megascale
    print(format_report(payload, reasons))
    text = json.dumps(payload, indent=2)
    if json_path:
        with open(json_path, "w") as handle:
            handle.write(text + "\n")
        print(f"JSON written to {json_path}")
    else:
        print(text)
    return 0 if payload["meets_floor"] else 1


if __name__ == "__main__":
    sys.exit(main())
