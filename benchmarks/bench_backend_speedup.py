"""Backend speed benchmark: slots/sec for event vs. vectorized execution.

Four suites, selected with ``--suite``:

``backend`` (default)
    Single-run throughput of each execution backend on a 30-device, 600-slot
    scenario for a spread of policies, plus multi-run throughput of
    ``run_many`` with and without a process pool.  The policy mix is
    deliberate: ``fixed_random`` / ``centralized`` are stationary policies
    where the slot loop is pure physics/recording overhead (the >= 3x
    acceptance floor is checked on the best such row), while ``greedy`` /
    ``smart_exp3`` document the learning-policy rows.

``kernels``
    Learning-policy throughput at fig06 scale (default 100 devices, 10,000
    slots): the batched policy-kernel path (``vectorized``) against the
    same backend with the kernel layer disabled (``vectorized-nokernel``,
    the per-device scalar path).  The EXP3 headline must clear the
    ``--floor`` (default 5x).  Emitted JSON is tracked as
    ``BENCH_policy_kernels.json`` so the perf trajectory has data points.

``results``
    The columnar result path at fig06 scale: a ``run_many(reduce="summary")``
    of 20 runs must hold peak RSS growth within ``--rss-factor`` (default 2x)
    of one full run's columnar footprint — proof that streaming reductions
    keep multi-run memory at O(one run) — and assembling a columnar
    ``SimulationResult`` from the recorder blocks must be at least ``--floor``
    (default 3x) faster than the seed per-device-dict scatter.  Tracked as
    ``BENCH_columnar_results.json``.

``churn``
    The churn-native topology path: the per-slot-churn stress scenario
    (default 100 devices, a join or departure on *every* slot — the workload
    the segmented executor served at event-backend speed) on the vectorized
    vs. the event backend.  The EXP3 headline must clear ``--floor``
    (default 5x); Smart EXP3 rides along as a documentation row.  Tracked as
    ``BENCH_churn_native.json``.

``compiled``
    The compiled-window path: a megascale-shaped uniform population
    (default 100k devices, stream-free constant delays — the precondition
    for compiled windows) run single-process on the ``vectorized`` backend
    twice: with the compiled tier off (``REPRO_COMPILED=0``, the per-slot
    baseline) and on (``REPRO_COMPILED=1``, numba-compiled windows when
    available).  The EXP3 headline must clear ``--floor`` (default 5x,
    target 10x) when numba is active — without numba both legs run the
    per-slot path and the floor is marked not applicable.  Tracked as
    ``BENCH_compiled_kernels.json``.

``shard``
    The sharded population engine at scale (default 100k devices): one
    summary-reduced run on the ``sharded`` backend (shards = workers =
    ``min(cpu_count, 8)``, float32 recorder, windowed in-shard reduction)
    against the same run on the single-process vectorized backend.  Reports
    devices/sec, device-slots/sec and the peak-RSS high-water of parent and
    workers.  The speedup must clear ``--floor`` (default 3x) — applicable
    only on machines with >= 4 cores (single-core hosts document the
    lockstep overhead instead; CI enforces the floor on its 4-vCPU
    runners).  A third leg re-runs the sharded side with checkpointing at a
    100-slot cadence and records the relative overhead, which must stay
    under 15% (``checkpoint_overhead_floor``).  ``--attach-megascale``
    embeds a payload produced by
    ``python -m repro.experiments.megascale --json ...`` so the tracked
    ``BENCH_sharded_population.json`` also records the million-device run.

``faults``
    Fault-injection smoke: a sharded multiprocess run is hard-killed via
    :class:`~repro.sim.sharded.FaultPlan`, auto-recovered from its last
    checkpoint, and the recovered reducer payload must be byte-identical
    to an unfaulted run; a corrupted checkpoint must be refused with
    :class:`~repro.sim.sharded.CheckpointError`; a stalled worker must
    surface :class:`~repro.sim.sharded.ShardFailureError` within the
    barrier timeout instead of hanging.  All three checks must pass
    (``meets_floor``).  Tracked by the CI fault-injection smoke job.

``telemetry``
    Telemetry overhead: the same sharded summary-reduced run executed with
    ``REPRO_TELEMETRY_DIR`` unset (the single-``is None``-check fast path)
    and set (structured events + metrics live).  The enabled leg's event
    log must validate against the versioned schema, the monitor's
    ``summary`` command must exit 0 over it, and ``report`` must
    reconstruct every worker's progress; the relative slowdown must stay
    under ``--floor`` (default 3%) on multi-core hosts.  Tracked as
    ``BENCH_telemetry.json``.

``registry``
    The run registry (:mod:`repro.registry`): a fig06-scale stability sweep
    at reduced scale (two device counts × ``--runs`` seeds) executed cold
    into a throwaway store, then re-executed warm.  The warm sweep must
    perform **zero simulations** (every cell served from the store) and be
    at least ``--floor`` (default 20x) faster than the cold sweep; a
    partially-warmed store (one case's cells deleted) must recompute only
    the missing cells; and every phase's merged reducer output must be
    value-bit-identical (canonical-JSON byte equality — floats print their
    shortest round-trip repr, so equal bytes means equal bits).  The
    speedup floor only gates on multi-core hosts; the zero-simulation and
    bit-identity checks always apply.  Tracked as
    ``BENCH_run_registry.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --policies fixed_random greedy --runs 4 --workers 4 --json out.json
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite kernels --json BENCH_policy_kernels.json
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite kernels --policies exp3 --devices 40 --slots 1500 --floor 2
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite results --json BENCH_columnar_results.json
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite churn --json BENCH_churn_native.json
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite compiled --json BENCH_compiled_kernels.json
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite shard --devices 100000 --slots 100 \
        --attach-megascale megascale_1m.json \
        --json BENCH_sharded_population.json
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite faults --devices 2000 --slots 60 --workers 2
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite registry --json BENCH_run_registry.json
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py \
        --suite telemetry --json BENCH_telemetry.json
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

from repro.sim.backends import available_backends
from repro.sim.metrics import SimulationResult
from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import per_slot_churn_scenario, setting1_scenario

DEFAULT_POLICIES = ("fixed_random", "centralized", "greedy", "smart_exp3")
NUM_DEVICES = 30
HORIZON_SLOTS = 600
#: Acceptance floor: the vectorized backend must be at least this much
#: faster than the event backend on the best physics-bound (stationary
#: policy) row.
SPEEDUP_FLOOR = 3.0

#: Speedup-ratio floors only gate on machines with at least this many
#: cores: a single-core host times both legs under scheduler contention
#: with everything else on the machine, so a ratio measured there is
#: noise, not a regression signal.  Every suite still records the measured
#: speedup either way; CI enforces the floors on its multi-core runners.
FLOOR_MIN_CPUS = 2


def _multicore() -> bool:
    return (os.cpu_count() or 1) >= FLOOR_MIN_CPUS


def bench_header() -> dict:
    """Provenance keys shared by every suite payload (bench hygiene).

    ``cpu_count``, the numpy version and the numba state pin down the
    machine/toolchain a tracked JSON was produced on, so perf trajectories
    across commits compare like with like.
    """
    import numpy

    from repro.algorithms.kernels.compiled import compiled_enabled, numba_version

    return {
        "cpu_count": os.cpu_count(),
        "numpy_version": numpy.__version__,
        "numba_version": numba_version(),
        "compiled_kernels": compiled_enabled(),
    }

#: Kernel-suite defaults: fig06-scale learning workloads.
KERNEL_POLICIES = ("exp3", "full_information", "smart_exp3")
KERNEL_NUM_DEVICES = 100
KERNEL_HORIZON_SLOTS = 10_000
#: Acceptance floor for the kernel path vs. the scalar-fallback path on the
#: EXP3 headline row (PR-2 acceptance: >= 5x at >= 100 devices, >= 10k slots).
KERNEL_SPEEDUP_FLOOR = 5.0


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_single_run(policy: str, backend: str, repeats: int) -> dict:
    scenario = setting1_scenario(
        policy=policy, num_devices=NUM_DEVICES, horizon_slots=HORIZON_SLOTS
    )
    seconds = _best_seconds(
        lambda: run_simulation(scenario, seed=0, backend=backend), repeats
    )
    return {
        "policy": policy,
        "backend": backend,
        "mode": "single_run",
        "seconds": seconds,
        "slots_per_second": HORIZON_SLOTS / seconds,
    }


def bench_multi_run(
    policy: str, backend: str, runs: int, workers: int | None, repeats: int
) -> dict:
    scenario = setting1_scenario(
        policy=policy, num_devices=NUM_DEVICES, horizon_slots=HORIZON_SLOTS
    )
    seconds = _best_seconds(
        lambda: run_many(scenario, runs=runs, backend=backend, workers=workers),
        repeats,
    )
    # Label with the pool width run_many actually uses (it dispatches a pool
    # of min(workers, runs) processes, and only when workers > 1 and runs > 1),
    # so the emitted JSON attributes throughput to the real configuration.
    effective = min(workers, runs) if workers and workers > 1 and runs > 1 else 0
    return {
        "policy": policy,
        "backend": f"{backend}+workers{effective}" if effective > 1 else backend,
        "mode": f"run_many(runs={runs})",
        "seconds": seconds,
        "slots_per_second": runs * HORIZON_SLOTS / seconds,
    }


def run_benchmark(
    policies=DEFAULT_POLICIES,
    runs: int = 3,
    workers: int | None = None,
    repeats: int = 2,
) -> dict:
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    rows: list[dict] = []
    speedups: dict[str, float] = {}
    for policy in policies:
        event_row = bench_single_run(policy, "event", repeats)
        vector_row = bench_single_run(policy, "vectorized", repeats)
        rows.extend([event_row, vector_row])
        speedups[policy] = (
            vector_row["slots_per_second"] / event_row["slots_per_second"]
        )
        # On a single-core host this degenerates to a serial run_many row,
        # which still documents the multi-run dispatch overhead.
        rows.append(bench_multi_run(policy, "vectorized", runs, workers, 1))

    # The >=3x floor is a statement about physics-bound workloads, so it only
    # gates runs that include a stationary policy; learning-policy-only runs
    # are documentation of the Amdahl limit, not a regression signal.
    stationary = {p: s for p, s in speedups.items() if p in ("fixed_random", "centralized")}
    headline_pool = stationary or speedups
    headline_policy = max(headline_pool, key=headline_pool.get)
    floor_applicable = bool(stationary) and _multicore()
    return {
        "scenario": f"setting1 ({NUM_DEVICES} devices, {HORIZON_SLOTS} slots)",
        "backends": list(available_backends()),
        **bench_header(),
        "rows": rows,
        "vectorized_speedup_by_policy": speedups,
        "headline": {
            "policy": headline_policy,
            "vectorized_speedup": speedups[headline_policy],
            "floor": SPEEDUP_FLOOR,
            "floor_applicable": floor_applicable,
            "meets_floor": (
                speedups[headline_policy] >= SPEEDUP_FLOOR
                if floor_applicable
                else True
            ),
        },
    }


def bench_kernel_run(
    policy: str, backend: str, num_devices: int, horizon: int, repeats: int
) -> dict:
    scenario = setting1_scenario(
        policy=policy, num_devices=num_devices, horizon_slots=horizon
    )
    seconds = _best_seconds(
        lambda: run_simulation(scenario, seed=0, backend=backend), repeats
    )
    return {
        "policy": policy,
        "backend": backend,
        "mode": "single_run",
        "seconds": seconds,
        "slots_per_second": horizon / seconds,
    }


def run_kernel_benchmark(
    policies=KERNEL_POLICIES,
    num_devices: int = KERNEL_NUM_DEVICES,
    horizon: int = KERNEL_HORIZON_SLOTS,
    repeats: int = 1,
    floor: float = KERNEL_SPEEDUP_FLOOR,
) -> dict:
    """Kernel path vs. scalar-fallback path on learning-policy workloads."""
    rows: list[dict] = []
    speedups: dict[str, float] = {}
    for policy in policies:
        scalar_row = bench_kernel_run(
            policy, "vectorized-nokernel", num_devices, horizon, repeats
        )
        kernel_row = bench_kernel_run(
            policy, "vectorized", num_devices, horizon, repeats
        )
        rows.extend([scalar_row, kernel_row])
        speedups[policy] = (
            kernel_row["slots_per_second"] / scalar_row["slots_per_second"]
        )
    # The acceptance criterion is stated for EXP3; fall back to the weakest
    # measured policy when EXP3 is not benchmarked so the floor stays a
    # lower bound rather than a best-case headline.
    headline_policy = "exp3" if "exp3" in speedups else min(speedups, key=speedups.get)
    floor_applicable = _multicore()
    return {
        "suite": "kernels",
        "scenario": f"setting1 ({num_devices} devices, {horizon} slots)",
        "backends": list(available_backends()),
        **bench_header(),
        "rows": rows,
        "kernel_speedup_by_policy": speedups,
        "headline": {
            "policy": headline_policy,
            "kernel_speedup": speedups[headline_policy],
            "floor": floor,
            "floor_applicable": floor_applicable,
            "meets_floor": (
                speedups[headline_policy] >= floor if floor_applicable else True
            ),
        },
    }


#: Results-suite defaults: fig06-scale streaming-reduction run.
RESULTS_POLICY = "fixed_random"
RESULTS_NUM_DEVICES = 100
RESULTS_HORIZON_SLOTS = 10_000
RESULTS_RUNS = 20
#: Peak-RSS growth allowed for the reduced multi-run, as a multiple of one
#: full run's columnar footprint.
RESULTS_RSS_FACTOR = 2.0
#: Columnar result construction must beat the seed dict scatter by this much.
RESULTS_CONSTRUCTION_FLOOR = 3.0


def _peak_rss_bytes() -> int | None:
    """Process high-water RSS in bytes (None where ``resource`` is missing)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform: skip the RSS check
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) * (1 if sys.platform == "darwin" else 1024)


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

    columnar = _best_seconds(
        lambda: [build_columnar() for _ in range(iterations)], 3
    )
    dict_layout = _best_seconds(
        lambda: [build_dict_layout() for _ in range(iterations)], 3
    )
    return columnar / iterations, dict_layout / iterations


def run_results_benchmark(
    policy: str = RESULTS_POLICY,
    num_devices: int = RESULTS_NUM_DEVICES,
    horizon: int = RESULTS_HORIZON_SLOTS,
    runs: int = RESULTS_RUNS,
    rss_factor: float = RESULTS_RSS_FACTOR,
    floor: float = RESULTS_CONSTRUCTION_FLOOR,
) -> dict:
    """Columnar result-path floors: streaming-reduction memory + construction.

    The memory check runs serially on purpose: the serial ``reduce=`` path
    frees each run's record before executing the next one, so peak RSS
    growth beyond one resident run means the streaming contract regressed.
    """
    scenario = setting1_scenario(
        policy=policy, num_devices=num_devices, horizon_slots=horizon
    )

    # One full run: the single-run footprint every floor is measured against.
    start = time.perf_counter()
    single = run_simulation(scenario, seed=0, backend="vectorized")
    single_seconds = time.perf_counter() - start
    single_bytes = single.nbytes
    full_payload_bytes = len(pickle.dumps(single, protocol=pickle.HIGHEST_PROTOCOL))

    columnar_s, dict_s = _construction_seconds(single, iterations=100)
    construction_speedup = dict_s / columnar_s

    # Streaming reduction at fig06 scale: peak RSS growth beyond the already
    # resident full run must stay within rss_factor x one run's footprint.
    baseline_rss = _peak_rss_bytes()
    start = time.perf_counter()
    summaries = run_many(scenario, runs=runs, backend="vectorized", reduce="summary")
    reduced_seconds = time.perf_counter() - start
    peak_rss = _peak_rss_bytes()
    reduced_payload_bytes = len(
        pickle.dumps(summaries.rows, protocol=pickle.HIGHEST_PROTOCOL)
    )

    if baseline_rss is None or peak_rss is None:
        rss_growth_bytes = None
        rss_ok = True  # unmeasurable platform: do not fail the floor
    else:
        rss_growth_bytes = max(peak_rss - baseline_rss, 0)
        rss_ok = rss_growth_bytes <= rss_factor * single_bytes

    return {
        "suite": "results",
        "scenario": f"setting1 ({num_devices} devices, {horizon} slots, {policy})",
        **bench_header(),
        "rows": [
            {
                "mode": "single_run_full_record",
                "seconds": single_seconds,
                "result_bytes": single_bytes,
                "pickled_payload_bytes": full_payload_bytes,
            },
            {
                "mode": f"run_many(runs={runs}, reduce=summary)",
                "seconds": reduced_seconds,
                "peak_rss_growth_bytes": rss_growth_bytes,
                "pickled_payload_bytes": reduced_payload_bytes,
            },
            {
                "mode": "result_construction",
                "columnar_seconds_per_call": columnar_s,
                "dict_scatter_seconds_per_call": dict_s,
                "speedup": construction_speedup,
            },
        ],
        "payload_shrink_factor": full_payload_bytes / max(reduced_payload_bytes, 1),
        "headline": {
            "rss_growth_bytes": rss_growth_bytes,
            "rss_budget_bytes": rss_factor * single_bytes,
            "rss_factor": rss_factor,
            "rss_ok": rss_ok,
            "construction_speedup": construction_speedup,
            "construction_floor": floor,
            "construction_ok": construction_speedup >= floor,
            "meets_floor": rss_ok and construction_speedup >= floor,
        },
    }


#: Churn-suite defaults: the per-slot-churn stress scenario.
CHURN_POLICIES = ("exp3", "smart_exp3")
CHURN_NUM_DEVICES = 100
#: Acceptance floor for vectorized vs. event on the per-slot-churn scenario
#: (PR-4 acceptance: >= 5x at 100 devices with a join/leave every slot, a
#: workload where the segmented executor was within noise of the event
#: backend).
CHURN_SPEEDUP_FLOOR = 5.0


def bench_churn_run(
    policy: str, backend: str, num_devices: int, repeats: int
) -> dict:
    scenario = per_slot_churn_scenario(num_devices=num_devices, policy=policy)
    seconds = _best_seconds(
        lambda: run_simulation(scenario, seed=0, backend=backend), repeats
    )
    return {
        "policy": policy,
        "backend": backend,
        "mode": "single_run",
        "horizon_slots": scenario.horizon_slots,
        "seconds": seconds,
        "slots_per_second": scenario.horizon_slots / seconds,
    }


def run_churn_benchmark(
    policies=CHURN_POLICIES,
    num_devices: int = CHURN_NUM_DEVICES,
    repeats: int = 3,
    floor: float = CHURN_SPEEDUP_FLOOR,
) -> dict:
    """Churn-native topology path vs. the event backend on per-slot churn."""
    rows: list[dict] = []
    speedups: dict[str, float] = {}
    for policy in policies:
        event_row = bench_churn_run(policy, "event", num_devices, repeats)
        vector_row = bench_churn_run(policy, "vectorized", num_devices, repeats)
        rows.extend([event_row, vector_row])
        speedups[policy] = (
            vector_row["slots_per_second"] / event_row["slots_per_second"]
        )
    # The acceptance criterion is stated for EXP3 (as in the kernels suite);
    # fall back to the weakest measured policy when EXP3 is not benchmarked
    # so the floor stays a lower bound rather than a best-case headline.
    headline_policy = (
        "exp3" if "exp3" in speedups else min(speedups, key=speedups.get)
    )
    horizon = rows[0]["horizon_slots"] if rows else 0
    floor_applicable = _multicore()
    return {
        "suite": "churn",
        "scenario": (
            f"per_slot_churn ({num_devices} devices, {horizon} slots, "
            "join/leave every slot)"
        ),
        "backends": list(available_backends()),
        **bench_header(),
        "rows": rows,
        "churn_speedup_by_policy": speedups,
        "headline": {
            "policy": headline_policy,
            "churn_speedup": speedups[headline_policy],
            "floor": floor,
            "floor_applicable": floor_applicable,
            "meets_floor": (
                speedups[headline_policy] >= floor if floor_applicable else True
            ),
        },
    }


#: Compiled-suite defaults: a megascale-shaped single-process workload,
#: large enough that per-slot Python overhead is what gets measured.
COMPILED_POLICY = "exp3"
COMPILED_NUM_DEVICES = 100_000
COMPILED_HORIZON_SLOTS = 300
#: Acceptance floor for compiled windows vs. the per-slot vectorized
#: baseline on the EXP3 headline (>= 5x in CI with numba installed; the
#: paper target is 10x).  Only applicable when the compiled kernels are
#: actually active — without numba both legs are the per-slot path.
COMPILED_SPEEDUP_FLOOR = 5.0

#: The two legs of the compiled suite: leg name -> REPRO_COMPILED value.
COMPILED_LEGS = {"per-slot": "0", "compiled": "1"}


def bench_compiled_run(
    policy: str, leg: str, num_devices: int, horizon: int, repeats: int
) -> dict:
    from repro.sim.sharded import HomogeneousPopulation

    population = HomogeneousPopulation(
        num_devices=num_devices,
        policy=policy,
        horizon_slots=horizon,
        name=f"compiled_bench_d{num_devices}",
    )
    scenario = population.build_shard(0, num_devices)
    os.environ["REPRO_COMPILED"] = COMPILED_LEGS[leg]
    seconds = _best_seconds(
        lambda: run_simulation(
            scenario, seed=0, backend="vectorized", record_probabilities=False
        ),
        repeats,
    )
    return {
        "policy": policy,
        "backend": "vectorized",
        "leg": leg,
        "mode": "single_run, record_probabilities=False",
        "seconds": seconds,
        "slots_per_second": horizon / seconds,
        "device_slots_per_second": num_devices * horizon / seconds,
    }


def run_compiled_benchmark(
    policy: str = COMPILED_POLICY,
    num_devices: int = COMPILED_NUM_DEVICES,
    horizon: int = COMPILED_HORIZON_SLOTS,
    repeats: int = 1,
    floor: float = COMPILED_SPEEDUP_FLOOR,
) -> dict:
    """Compiled windows vs. the per-slot baseline.

    Both legs run the same uniform population single-process on the
    vectorized backend: with ``REPRO_COMPILED=0`` every slot runs the
    engine's phases (the baseline), with ``REPRO_COMPILED=1`` whole draw
    windows go through the compiled mega-loop when numba is importable.
    Stream-free constant delays are a precondition for compiled windows,
    which is why the workload is megascale-shaped rather than a
    ``setting1`` scenario.  Without numba both legs measure the per-slot
    path and the floor is marked not applicable.
    """
    from repro.algorithms.kernels.compiled import compiled_enabled

    saved = os.environ.get("REPRO_COMPILED")
    rows: list[dict] = []
    legs: dict[str, dict] = {}
    try:
        for leg in COMPILED_LEGS:
            row = bench_compiled_run(policy, leg, num_devices, horizon, repeats)
            rows.append(row)
            legs[leg] = row
        compiled = compiled_enabled()
    finally:
        if saved is None:
            os.environ.pop("REPRO_COMPILED", None)
        else:
            os.environ["REPRO_COMPILED"] = saved
    speedup = (
        legs["compiled"]["slots_per_second"]
        / legs["per-slot"]["slots_per_second"]
    )
    floor_applicable = compiled and _multicore()
    return {
        "suite": "compiled",
        "scenario": (
            f"uniform population ({num_devices} devices, {horizon} slots, "
            f"{policy}, constant delays)"
        ),
        "backends": list(available_backends()),
        **bench_header(),
        "rows": rows,
        "headline": {
            "policy": policy,
            "compiled_speedup": speedup,
            "compiled_kernels": compiled,
            "floor": floor,
            "floor_applicable": floor_applicable,
            "meets_floor": speedup >= floor if floor_applicable else True,
        },
    }


def format_compiled_report(payload: dict) -> str:
    lines = [f"Compiled-window throughput on {payload['scenario']}:"]
    for row in payload["rows"]:
        lines.append(
            f"  {row['leg']:<22} {row['seconds']:8.2f}s "
            f"{row['device_slots_per_second']:>14,.0f} dev-slots/s"
        )
    headline = payload["headline"]
    mode = (
        "compiled (numba) windows"
        if headline["compiled_kernels"]
        else "compiled tier off"
    )
    if headline["floor_applicable"]:
        floor_note = (
            f"(floor {headline['floor']:.1f}x, "
            f"{'met' if headline['meets_floor'] else 'NOT met'})"
        )
    elif not headline["compiled_kernels"]:
        floor_note = "(floor not applicable: numba not active)"
    else:
        floor_note = (
            f"(floor not applicable on {payload['cpu_count']} core(s))"
        )
    lines.append(
        f"Headline ({headline['policy']}, {mode}): "
        f"{headline['compiled_speedup']:.2f}x vs per-slot {floor_note}"
    )
    return "\n".join(lines)


#: Shard-suite defaults: a megascale-style population, scaled to CI.
SHARD_POLICY = "exp3"
SHARD_NUM_DEVICES = 100_000
SHARD_HORIZON_SLOTS = 100
#: Acceptance floor for the sharded engine vs. the single-process
#: vectorized backend at 100k devices (applicable on >= 4-core machines —
#: the parallel path cannot beat the serial one on fewer cores).
SHARD_SPEEDUP_FLOOR = 3.0
SHARD_FLOOR_MIN_CPUS = 4
#: Checkpoint cadence measured by the shard suite, and the allowed relative
#: slowdown of the checkpointing run vs. the same run without durability.
SHARD_CHECKPOINT_EVERY = 100
SHARD_CHECKPOINT_OVERHEAD_FLOOR = 0.15


def run_shard_benchmark(
    policy: str = SHARD_POLICY,
    num_devices: int = SHARD_NUM_DEVICES,
    horizon: int = SHARD_HORIZON_SLOTS,
    workers: int | None = None,
    repeats: int = 1,
    floor: float = SHARD_SPEEDUP_FLOOR,
    megascale_payload: dict | None = None,
) -> dict:
    """Sharded population engine vs. single-process vectorized execution.

    Both sides execute the same summary-reduced run of a uniform
    ``num_devices``-device population (stream-free constant delays, the
    megascale configuration): the vectorized backend as one process over
    the full population, the sharded backend with one worker process per
    shard and windowed in-shard reduction.  Timings are best-of
    ``repeats``.  The sharded leg runs *first* so its parent/worker RSS
    high-water marks describe the streaming path — ``ru_maxrss`` is
    monotone over the process lifetime, so measuring it after the
    vectorized leg (which materialises the full columnar record) would
    only ever report the vectorized footprint.
    """
    import tempfile

    from repro.analysis.reducers import SummaryReducer
    from repro.sim.sharded import (
        CheckpointConfig,
        HomogeneousPopulation,
        ShardedSlotExecutor,
    )

    cpus = os.cpu_count() or 1
    if workers is None:
        workers = max(1, min(cpus, 8))
    population = HomogeneousPopulation(
        num_devices=num_devices,
        policy=policy,
        horizon_slots=horizon,
        name=f"shard_bench_d{num_devices}",
    )
    scenario = population.build_shard(0, num_devices)
    reducer = SummaryReducer()
    device_slots = num_devices * horizon

    baseline_rss = _peak_rss_bytes()
    executor = ShardedSlotExecutor(
        shards=workers, workers=workers, dtype="float32"
    )
    sharded_seconds = _best_seconds(
        lambda: executor.execute_population(population, 0, reducer), repeats
    )
    sharded_rss = _peak_rss_bytes()
    try:
        import resource

        worker_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * (
            1 if sys.platform == "darwin" else 1024
        )
    except ImportError:
        worker_peak = None

    # Same sharded run with durability on: periodic checkpoints at the
    # documented cadence (the horizon's final slot always checkpoints, so a
    # 100-slot run at a 100-slot cadence measures exactly one snapshot).
    with tempfile.TemporaryDirectory(prefix="shard_bench_ckpt_") as ckpt_dir:

        def _checkpointed():
            durable = executor.with_durability(
                checkpoint=CheckpointConfig(
                    every_slots=SHARD_CHECKPOINT_EVERY, dir=ckpt_dir
                )
            )
            return durable.execute_population(population, 0, reducer)

        checkpointed_seconds = _best_seconds(_checkpointed, repeats)
    checkpoint_overhead = (
        checkpointed_seconds - sharded_seconds
    ) / sharded_seconds

    vectorized_seconds = _best_seconds(
        lambda: reducer.map(
            run_simulation(
                scenario,
                seed=0,
                backend="vectorized",
                record_probabilities=False,
            )
        ),
        repeats,
    )
    vectorized_rss = _peak_rss_bytes()

    speedup = vectorized_seconds / sharded_seconds
    floor_applicable = cpus >= SHARD_FLOOR_MIN_CPUS and workers >= SHARD_FLOOR_MIN_CPUS
    rows = [
        {
            "backend": f"sharded (shards={workers}, workers={workers}, float32)",
            "mode": "in-shard windowed reduce=summary",
            "seconds": sharded_seconds,
            "devices_per_second": num_devices / sharded_seconds,
            "device_slots_per_second": device_slots / sharded_seconds,
            "parent_peak_rss_bytes": sharded_rss,
            "worker_peak_rss_bytes": worker_peak,
        },
        {
            "backend": (
                f"sharded + checkpoint every {SHARD_CHECKPOINT_EVERY} slots"
            ),
            "mode": "in-shard windowed reduce=summary, durable",
            "seconds": checkpointed_seconds,
            "devices_per_second": num_devices / checkpointed_seconds,
            "device_slots_per_second": device_slots / checkpointed_seconds,
            "checkpoint_overhead": checkpoint_overhead,
        },
        {
            "backend": "vectorized",
            "mode": "single process, reduce=summary",
            "seconds": vectorized_seconds,
            "devices_per_second": num_devices / vectorized_seconds,
            "device_slots_per_second": device_slots / vectorized_seconds,
            # Monotone high-water after both legs; the vectorized full
            # record dominates it, which is the comparison's point.
            "parent_peak_rss_bytes": vectorized_rss,
        },
    ]
    payload = {
        "suite": "shard",
        "scenario": (
            f"uniform population ({num_devices} devices, {horizon} slots, "
            f"{policy}, constant delays)"
        ),
        **bench_header(),
        "baseline_rss_bytes": baseline_rss,
        "rows": rows,
        "headline": {
            "sharded_speedup": speedup,
            "floor": floor,
            "floor_applicable": floor_applicable,
            "checkpoint_overhead": checkpoint_overhead,
            "checkpoint_every_slots": SHARD_CHECKPOINT_EVERY,
            "checkpoint_overhead_floor": SHARD_CHECKPOINT_OVERHEAD_FLOOR,
            "checkpoint_overhead_ok": (
                checkpoint_overhead <= SHARD_CHECKPOINT_OVERHEAD_FLOOR
            ),
            "meets_floor": (
                (speedup >= floor if floor_applicable else True)
                and checkpoint_overhead <= SHARD_CHECKPOINT_OVERHEAD_FLOOR
            ),
        },
    }
    if megascale_payload is not None:
        payload["megascale"] = megascale_payload
    return payload


def format_shard_report(payload: dict) -> str:
    lines = [f"Sharded population engine on {payload['scenario']}:"]
    for row in payload["rows"]:
        parts = [
            f"  {row['backend']:<46} {row['seconds']:8.2f}s",
            f"{row['devices_per_second']:>12,.0f} devices/s",
            f"{row['device_slots_per_second']:>14,.0f} dev-slots/s",
        ]
        if row.get("worker_peak_rss_bytes"):
            parts.append(
                f"worker rss {row['worker_peak_rss_bytes'] / 1e6:8.0f} MB"
            )
        lines.append(" ".join(parts))
    headline = payload["headline"]
    floor_note = (
        f"(floor {headline['floor']:.1f}x, "
        f"{'met' if headline['sharded_speedup'] >= headline['floor'] else 'NOT met'})"
        if headline["floor_applicable"]
        else f"(floor not applicable on {payload['cpu_count']} core(s))"
    )
    lines.append(
        f"Headline: sharded {headline['sharded_speedup']:.2f}x vs "
        f"vectorized {floor_note}"
    )
    lines.append(
        f"Checkpoint overhead (every {headline['checkpoint_every_slots']} "
        f"slots): {100 * headline['checkpoint_overhead']:.1f}% "
        f"(floor {100 * headline['checkpoint_overhead_floor']:.0f}%, "
        f"{'met' if headline['checkpoint_overhead_ok'] else 'NOT met'})"
    )
    if "megascale" in payload:
        mega = payload["megascale"]
        lines.append(
            "Megascale run attached: "
            f"{mega['population']['num_devices']:,} devices x "
            f"{mega['population']['horizon_slots']:,} slots, "
            f"{mega['perf']['device_slots_per_second']:,.0f} dev-slots/s, "
            f"peak rss {mega['perf']['peak_rss_bytes'] / 1e9:.2f} GB"
        )
    return "\n".join(lines)


#: Faults-suite defaults: a small but genuinely multiprocess sharded run.
FAULTS_NUM_DEVICES = 2000
FAULTS_HORIZON_SLOTS = 60
FAULTS_WORKERS = 2


def run_faults_benchmark(
    num_devices: int = FAULTS_NUM_DEVICES,
    horizon: int = FAULTS_HORIZON_SLOTS,
    workers: int = FAULTS_WORKERS,
) -> dict:
    """Fault-injection smoke: kill/recover, refuse corruption, bound hangs."""
    import pickle as pickle_module
    import tempfile

    from repro.analysis.reducers import SummaryReducer
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

    shards = max(2, workers)
    every = max(1, horizon // 4)
    kill_slot = max(2, (2 * horizon) // 3)
    population = HomogeneousPopulation(
        num_devices=num_devices,
        policy="exp3",
        horizon_slots=horizon,
        name=f"faults_bench_d{num_devices}",
    )
    reducer = SummaryReducer()
    supervision = SupervisionConfig(
        barrier_timeout_s=60.0, backoff_s=0.05, poll_interval_s=0.2
    )

    start = time.perf_counter()
    reference = ShardedSlotExecutor(
        shards=shards, workers=workers, dtype="float32", window_slots=32
    ).execute_population(population, 0, reducer)
    clean_seconds = time.perf_counter() - start

    # Leg 1: hard-kill a worker mid-run; supervision must restart from the
    # last checkpoint and the recovered payload must be byte-identical.
    with tempfile.TemporaryDirectory(prefix="faults_bench_") as tmp:
        executor = ShardedSlotExecutor(
            shards=shards,
            workers=workers,
            dtype="float32",
            window_slots=32,
            checkpoint=CheckpointConfig(every_slots=every, dir=tmp),
            fault_plan=FaultPlan(
                (KillWorker(worker=workers - 1, slot=kill_slot, hard=True),)
            ),
            supervision=supervision,
        )
        start = time.perf_counter()
        recovered = executor.execute_population(population, 0, reducer)
        recovery_seconds = time.perf_counter() - start
    recovery_ok = pickle_module.dumps(reference) == pickle_module.dumps(
        recovered
    )

    # Leg 2: a corrupted checkpoint must be refused on resume, never
    # silently restored.
    corruption_ok = False
    with tempfile.TemporaryDirectory(prefix="faults_bench_") as tmp:
        dying = ShardedSlotExecutor(
            shards=shards,
            workers=1,
            dtype="float32",
            window_slots=32,
            checkpoint=CheckpointConfig(every_slots=every, dir=tmp),
            fault_plan=FaultPlan(
                (
                    CorruptCheckpoint(slot=every, shard=0),
                    KillWorker(worker=0, slot=min(every + 1, horizon)),
                )
            ),
            supervision=SupervisionConfig(max_restarts=0, backoff_s=0.05),
        )
        try:
            dying.execute_population(population, 0, reducer)
        except ShardFailureError:
            pass
        try:
            ShardedSlotExecutor(
                shards=shards, workers=1, dtype="float32", window_slots=32,
                resume_from=tmp,
            ).execute_population(population, 0, reducer)
        except CheckpointError as exc:
            corruption_ok = "corrupt" in str(exc)

    # Leg 3: a stalled worker must fail the run within the barrier timeout
    # with per-worker diagnostics — never an indefinite hang.
    timeout_ok = False
    start = time.perf_counter()
    try:
        ShardedSlotExecutor(
            shards=shards,
            workers=workers,
            dtype="float32",
            window_slots=32,
            fault_plan=FaultPlan(
                (DelayExchange(worker=0, slot=5, seconds=30.0),)
            ),
            supervision=SupervisionConfig(
                barrier_timeout_s=2.0, backoff_s=0.05, poll_interval_s=0.2
            ),
        ).execute_population(population, 0, reducer)
    except ShardFailureError as exc:
        timeout_ok = "slot 5" in str(exc)
    detection_seconds = time.perf_counter() - start

    return {
        "suite": "faults",
        "scenario": (
            f"uniform population ({num_devices} devices, {horizon} slots, "
            f"exp3, shards={shards}, workers={workers})"
        ),
        **bench_header(),
        "rows": [
            {
                "check": "hard-kill worker, restart from checkpoint",
                "clean_seconds": clean_seconds,
                "recovery_seconds": recovery_seconds,
                "byte_identical": recovery_ok,
            },
            {
                "check": "corrupted checkpoint refused on resume",
                "refused": corruption_ok,
            },
            {
                "check": "hung worker detected within barrier timeout",
                "detection_seconds": detection_seconds,
                "surfaced": timeout_ok,
            },
        ],
        "headline": {
            "recovery_byte_identical": recovery_ok,
            "corruption_refused": corruption_ok,
            "hang_detected": timeout_ok,
            "meets_floor": recovery_ok and corruption_ok and timeout_ok,
        },
    }


def format_faults_report(payload: dict) -> str:
    lines = [f"Fault-injection smoke on {payload['scenario']}:"]
    for row in payload["rows"]:
        verdict = row.get(
            "byte_identical", row.get("refused", row.get("surfaced"))
        )
        timing = ""
        if "recovery_seconds" in row:
            timing = (
                f" (clean {row['clean_seconds']:.2f}s, with kill+recovery "
                f"{row['recovery_seconds']:.2f}s)"
            )
        elif "detection_seconds" in row:
            timing = f" (detected in {row['detection_seconds']:.2f}s)"
        lines.append(
            f"  {row['check']:<48} {'ok' if verdict else 'FAILED'}{timing}"
        )
    headline = payload["headline"]
    lines.append(
        "Headline: "
        f"{'all checks passed' if headline['meets_floor'] else 'CHECKS FAILED'}"
    )
    return "\n".join(lines)


#: Telemetry-suite defaults: a sharded run long enough that per-event costs
#: would show up in the ratio if they existed.
TELEMETRY_POLICY = "exp3"
TELEMETRY_NUM_DEVICES = 20_000
TELEMETRY_HORIZON_SLOTS = 150
#: Allowed relative slowdown of the telemetry-enabled run vs. the same run
#: with telemetry off (multi-core hosts; single-core ratios are noise).
TELEMETRY_OVERHEAD_FLOOR = 0.03


def run_telemetry_benchmark(
    policy: str = TELEMETRY_POLICY,
    num_devices: int = TELEMETRY_NUM_DEVICES,
    horizon: int = TELEMETRY_HORIZON_SLOTS,
    workers: int | None = None,
    repeats: int = 3,
    floor: float = TELEMETRY_OVERHEAD_FLOOR,
) -> dict:
    """Telemetry enabled-vs-disabled overhead on a sharded population run.

    Both legs execute the identical summary-reduced sharded run; only
    ``REPRO_TELEMETRY_DIR`` differs.  Alongside the overhead ratio the
    enabled leg is a functional acceptance check: the event log must
    validate against the versioned schema, ``python -m repro.telemetry
    summary`` must exit 0 over it, and ``report`` must see every worker
    finish — so the suite fails loudly if instrumentation drifts from the
    schema instead of silently benchmarking a broken log.
    """
    import io
    import shutil
    import tempfile

    from repro.analysis.reducers import SummaryReducer
    from repro.sim.sharded import HomogeneousPopulation, ShardedSlotExecutor
    from repro.telemetry import read_events, set_telemetry_dir, validate_directory
    from repro.telemetry.__main__ import build_report, main as telemetry_main

    cpus = os.cpu_count() or 1
    if workers is None:
        workers = max(1, min(cpus, 4))
    population = HomogeneousPopulation(
        num_devices=num_devices,
        policy=policy,
        horizon_slots=horizon,
        name=f"telemetry_bench_d{num_devices}",
    )
    reducer = SummaryReducer()
    executor = ShardedSlotExecutor(
        shards=workers, workers=workers, dtype="float32"
    )
    device_slots = num_devices * horizon

    set_telemetry_dir(None)
    disabled_seconds = _best_seconds(
        lambda: executor.execute_population(population, 0, reducer), repeats
    )

    telemetry_root = tempfile.mkdtemp(prefix="telemetry_bench_")
    try:
        # Each timed iteration writes into a fresh subdirectory so repeats
        # don't append to each other's streams; the last one is validated.
        run_index = [0]

        def _enabled():
            event_dir = os.path.join(telemetry_root, f"run{run_index[0]}")
            run_index[0] += 1
            set_telemetry_dir(event_dir)
            try:
                return executor.execute_population(population, 0, reducer)
            finally:
                set_telemetry_dir(None)

        enabled_seconds = _best_seconds(_enabled, repeats)
        event_dir = os.path.join(telemetry_root, f"run{run_index[0] - 1}")

        schema_errors = validate_directory(event_dir)
        events = read_events(event_dir)
        report = build_report(events)
        workers_done = sum(
            1 for row in report["workers"].values() if row.get("done")
        )
        summary_rc = telemetry_main(
            ["--dir", event_dir, "summary"], out=io.StringIO()
        )
    finally:
        set_telemetry_dir(None)
        shutil.rmtree(telemetry_root, ignore_errors=True)

    overhead = (enabled_seconds - disabled_seconds) / disabled_seconds
    floor_applicable = _multicore()
    log_valid = (
        not schema_errors and bool(events) and summary_rc == 0
        and workers_done == workers
    )
    return {
        "suite": "telemetry",
        "scenario": (
            f"uniform population ({num_devices} devices, {horizon} slots, "
            f"{policy}, shards={workers}, workers={workers})"
        ),
        **bench_header(),
        "rows": [
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
        ],
        "headline": {
            "overhead": overhead,
            "floor": floor,
            "floor_applicable": floor_applicable,
            "event_log_valid": log_valid,
            "meets_floor": log_valid
            and (overhead <= floor if floor_applicable else True),
        },
    }


def format_telemetry_report(payload: dict) -> str:
    lines = [f"Telemetry overhead on {payload['scenario']}:"]
    for row in payload["rows"]:
        parts = [
            f"  {row['mode']:<44} {row['seconds']:8.2f}s",
            f"{row['device_slots_per_second']:>14,.0f} dev-slots/s",
        ]
        if "events" in row:
            parts.append(
                f"{row['events']} events, {row['schema_errors']} schema errors"
            )
        lines.append(" ".join(parts))
    headline = payload["headline"]
    floor_note = (
        f"(floor {100 * headline['floor']:.0f}%, "
        f"{'met' if headline['overhead'] <= headline['floor'] else 'NOT met'})"
        if headline["floor_applicable"]
        else f"(floor not applicable on {payload['cpu_count']} core(s))"
    )
    lines.append(
        f"Headline: {100 * headline['overhead']:+.1f}% overhead {floor_note}; "
        f"event log {'valid' if headline['event_log_valid'] else 'INVALID'}"
    )
    return "\n".join(lines)


#: Registry-suite defaults: a reduced-scale fig06 stability sweep — two
#: device counts (``devices // 2`` and ``devices``) × REGISTRY_RUNS seeds.
REGISTRY_POLICY = "smart_exp3_no_reset"
REGISTRY_NUM_DEVICES = 20
REGISTRY_HORIZON_SLOTS = 400
REGISTRY_RUNS = 3
#: Acceptance floor: the warm (fully cached) sweep must be at least this
#: much faster than the cold sweep (multi-core hosts only; the
#: zero-simulation and bit-identity checks gate everywhere).
REGISTRY_SPEEDUP_FLOOR = 20.0


def _sweep_canonical_json(report) -> str:
    """Canonical JSON of a sweep's finalized outputs (value bit-identity).

    Floats serialize as their shortest round-trip repr, which is bijective
    with the underlying double — byte-equal JSON therefore means every
    value is bit-identical, independent of pickle object-graph artifacts
    (a loaded artifact does not share key-string objects with a freshly
    computed one, so raw pickle bytes are not comparable).
    """
    rows = {
        name: list(summaries.rows) for name, summaries in report.results.items()
    }
    return json.dumps(rows, sort_keys=True)


def run_registry_benchmark(
    policy: str = REGISTRY_POLICY,
    num_devices: int = REGISTRY_NUM_DEVICES,
    horizon: int = REGISTRY_HORIZON_SLOTS,
    runs: int = REGISTRY_RUNS,
    workers: int | None = None,
    floor: float = REGISTRY_SPEEDUP_FLOOR,
) -> dict:
    """Cold vs warm vs partially-warm sweep through the run registry."""
    import shutil
    import tempfile

    from repro.registry import CacheSpec, RunStore
    from repro.registry.sweep import expand_grid, run_sweep
    from repro.sim.scenario import scalability_scenario

    device_grid = tuple(sorted({max(2, num_devices // 2), num_devices}))

    def factory(num_devices: int):
        return scalability_scenario(
            num_devices=num_devices,
            num_networks=3,
            policy=policy,
            horizon_slots=horizon,
        )

    cases = expand_grid(factory, {"num_devices": device_grid}, runs=runs)
    cells_total = sum(case.runs for case in cases)
    root = tempfile.mkdtemp(prefix="repro-registry-bench-")
    try:
        def sweep(store: RunStore):
            return run_sweep(
                cases,
                reduce="stability",
                cache=CacheSpec(mode="reuse", store=store),
                workers=workers,
            )

        cold_store = RunStore(root)
        cold = sweep(cold_store)
        warm_store = RunStore(root)  # fresh instance: clean traffic counters
        warm = sweep(warm_store)

        # Partially warm: drop one case's committed cells, sweep again —
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

    zero_simulations = (
        warm.cells_computed == 0
        and warm_store.misses == 0
        and warm_store.stored == 0
    )
    partial_incremental = (
        partial.cells_computed == len(dropped)
        and partial_store.stored == len(dropped)
        and partial.cells_cached == cells_total - len(dropped)
    )
    speedup = cold.seconds / max(warm.seconds, 1e-9)
    floor_applicable = _multicore()
    meets_floor = (
        zero_simulations
        and bit_identical
        and partial_incremental
        and (speedup >= floor or not floor_applicable)
    )
    rows = [
        {
            "phase": phase,
            "seconds": report.seconds,
            "cells_total": report.cells_total,
            "cells_cached": report.cells_cached,
            "cells_computed": report.cells_computed,
        }
        for phase, report in (
            ("cold", cold), ("warm", warm), ("partial", partial),
        )
    ]
    return {
        "suite": "registry",
        "scenario": f"scalability sweep devices={device_grid}",
        **bench_header(),
        "policy": policy,
        "device_grid": list(device_grid),
        "runs_per_case": runs,
        "horizon_slots": horizon,
        "reducer": "stability",
        "store_bytes": store_bytes,
        "cells_dropped_for_partial": len(dropped),
        "rows": rows,
        "headline": {
            "warm_speedup": speedup,
            "floor": floor,
            "floor_applicable": floor_applicable,
            "zero_simulations": zero_simulations,
            "bit_identical": bit_identical,
            "partial_incremental": partial_incremental,
            "meets_floor": meets_floor,
        },
    }


def format_registry_report(payload: dict) -> str:
    lines = [f"Run registry on {payload['scenario']}:"]
    for row in payload["rows"]:
        lines.append(
            f"  {row['phase']:<8} {row['seconds']:8.2f}s  "
            f"{row['cells_cached']:>3}/{row['cells_total']} cells cached, "
            f"{row['cells_computed']} simulated"
        )
    headline = payload["headline"]
    lines.append(
        f"  store: {payload['store_bytes'] / 1024:.1f} KiB for "
        f"{payload['rows'][0]['cells_total']} artifact(s)"
    )
    checks = (
        f"zero_simulations={'ok' if headline['zero_simulations'] else 'FAIL'} "
        f"bit_identical={'ok' if headline['bit_identical'] else 'FAIL'} "
        f"partial_incremental="
        f"{'ok' if headline['partial_incremental'] else 'FAIL'}"
    )
    floor_note = (
        f"(floor {headline['floor']:.0f}x, "
        f"{'met' if headline['warm_speedup'] >= headline['floor'] else 'NOT met'})"
        if headline["floor_applicable"]
        else f"(floor not applicable on {payload['cpu_count']} core(s))"
    )
    lines.append(
        f"Headline: warm {headline['warm_speedup']:.1f}x vs cold {floor_note}; "
        f"{checks}"
    )
    return "\n".join(lines)


def format_churn_report(payload: dict) -> str:
    lines = [f"Churn-native throughput on {payload['scenario']}:"]
    for row in payload["rows"]:
        lines.append(
            f"  {row['policy']:<18} {row['backend']:<14} "
            f"{row['slots_per_second']:>12,.0f} slots/s"
        )
    lines.append("Vectorized speedup vs event (per-slot churn):")
    for policy, speedup in payload["churn_speedup_by_policy"].items():
        lines.append(f"  {policy:<18} {speedup:6.2f}x")
    headline = payload["headline"]
    floor_note = (
        f"(floor {headline['floor']:.1f}x, "
        f"{'met' if headline['meets_floor'] else 'NOT met'})"
        if headline["floor_applicable"]
        else f"(floor not applicable on {payload['cpu_count']} core(s))"
    )
    lines.append(
        f"Headline ({headline['policy']}): {headline['churn_speedup']:.2f}x "
        f"{floor_note}"
    )
    return "\n".join(lines)


def format_results_report(payload: dict) -> str:
    headline = payload["headline"]
    lines = [f"Columnar result path on {payload['scenario']}:"]
    for row in payload["rows"]:
        parts = [f"  {row['mode']:<42}"]
        if "seconds" in row:
            parts.append(f"{row['seconds']:8.2f}s")
        if row.get("result_bytes") is not None:
            parts.append(f"record {row['result_bytes'] / 1e6:8.1f} MB")
        if row.get("peak_rss_growth_bytes") is not None:
            parts.append(f"rss growth {row['peak_rss_growth_bytes'] / 1e6:8.1f} MB")
        if "pickled_payload_bytes" in row:
            parts.append(f"payload {row['pickled_payload_bytes'] / 1e3:10.1f} kB")
        if "speedup" in row:
            parts.append(f"{row['speedup']:8.1f}x vs dict scatter")
        lines.append(" ".join(parts))
    lines.append(
        f"IPC payload shrink with reduce=summary: "
        f"{payload['payload_shrink_factor']:,.0f}x"
    )
    rss_note = (
        "unmeasured"
        if headline["rss_growth_bytes"] is None
        else f"{headline['rss_growth_bytes'] / 1e6:.1f} MB of "
        f"{headline['rss_budget_bytes'] / 1e6:.1f} MB budget"
    )
    lines.append(
        f"Headline: rss {rss_note} ({'ok' if headline['rss_ok'] else 'EXCEEDED'}); "
        f"construction {headline['construction_speedup']:.1f}x "
        f"(floor {headline['construction_floor']:.1f}x, "
        f"{'met' if headline['meets_floor'] else 'NOT met'})"
    )
    return "\n".join(lines)


def format_kernel_report(payload: dict) -> str:
    lines = [f"Policy-kernel throughput on {payload['scenario']}:"]
    for row in payload["rows"]:
        lines.append(
            f"  {row['policy']:<18} {row['backend']:<22} "
            f"{row['slots_per_second']:>12,.0f} slots/s"
        )
    lines.append("Kernel speedup vs scalar fallback (single run):")
    for policy, speedup in payload["kernel_speedup_by_policy"].items():
        lines.append(f"  {policy:<18} {speedup:6.2f}x")
    headline = payload["headline"]
    floor_note = (
        f"(floor {headline['floor']:.1f}x, "
        f"{'met' if headline['meets_floor'] else 'NOT met'})"
        if headline["floor_applicable"]
        else f"(floor not applicable on {payload['cpu_count']} core(s))"
    )
    lines.append(
        f"Headline ({headline['policy']}): {headline['kernel_speedup']:.2f}x "
        f"{floor_note}"
    )
    return "\n".join(lines)


def format_report(payload: dict) -> str:
    lines = [f"Backend throughput on {payload['scenario']}:"]
    for row in payload["rows"]:
        lines.append(
            f"  {row['policy']:<14} {row['backend']:<20} {row['mode']:<18} "
            f"{row['slots_per_second']:>12,.0f} slots/s"
        )
    lines.append("Vectorized speedup vs event (single run):")
    for policy, speedup in payload["vectorized_speedup_by_policy"].items():
        lines.append(f"  {policy:<14} {speedup:6.2f}x")
    headline = payload["headline"]
    if headline["floor_applicable"]:
        floor_note = (
            f"(floor {headline['floor']:.1f}x, "
            f"{'met' if headline['meets_floor'] else 'NOT met'})"
        )
    else:
        floor_note = (
            "(floor not applicable: no stationary policy benchmarked "
            f"or single-core host — {payload['cpu_count']} core(s))"
        )
    lines.append(
        f"Headline ({headline['policy']}): "
        f"{headline['vectorized_speedup']:.2f}x {floor_note}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=(
            "backend", "kernels", "results", "churn", "compiled", "shard",
            "faults", "registry", "telemetry",
        ),
        default="backend",
        help=(
            "backend: event vs vectorized; kernels: scalar vs batched kernels; "
            "results: columnar result path (streaming-reduction RSS + "
            "construction floors); churn: event vs vectorized on per-slot "
            "topology churn; compiled: numba window kernels vs the "
            "per-slot vectorized baseline at 100k devices; shard: sharded "
            "population engine vs vectorized at 100k devices (plus "
            "checkpoint-overhead floor); faults: fault-injection smoke "
            "(kill/recover byte-identical, corruption refused, hangs "
            "bounded); registry: run-registry cold vs warm sweep (warm must "
            "simulate nothing and clear the speedup floor); telemetry: "
            "enabled-vs-disabled overhead of the run-telemetry layer on a "
            "sharded run (event log must validate, overhead under the floor)"
        ),
    )
    parser.add_argument("--policies", nargs="+", default=None)
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help="backend suite: runs for run_many rows; results suite: reduced runs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "backend suite: pool width (default: min(4, cpus)); shard "
            "suite: shard/worker count (default: min(8, cpus))"
        ),
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    parser.add_argument(
        "--devices",
        type=int,
        default=None,
        help="kernels/results/churn/compiled/shard suites: device count",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=None,
        help="kernels/results/compiled/shard suites: horizon in slots",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=None,
        help=(
            "kernels: minimum EXP3 speedup; results: minimum columnar "
            "construction speedup vs the dict scatter; churn: minimum EXP3 "
            "vectorized-vs-event speedup on per-slot churn; compiled: "
            "minimum compiled-window speedup vs the per-slot baseline (with "
            "numba active); shard: minimum sharded-vs-vectorized speedup "
            "(>= 4-core machines); telemetry: maximum enabled-vs-disabled "
            "overhead as a fraction (default 0.03)"
        ),
    )
    parser.add_argument(
        "--rss-factor",
        type=float,
        default=None,
        help="results suite: allowed peak-RSS growth as a multiple of one run",
    )
    parser.add_argument(
        "--attach-megascale",
        default=None,
        metavar="PATH",
        help=(
            "shard suite: embed a payload previously written by "
            "'python -m repro.experiments.megascale --json PATH'"
        ),
    )
    parser.add_argument("--json", default=None, help="also write the JSON payload here")
    args = parser.parse_args(argv)

    # Flags are suite-specific; reject cross-suite usage instead of silently
    # benchmarking a different configuration than the one asked for.
    if args.suite != "shard" and args.attach_megascale is not None:
        parser.error("--attach-megascale only applies to --suite shard")
    if args.suite == "kernels":
        for flag, value in (
            ("--runs", args.runs),
            ("--workers", args.workers),
            ("--rss-factor", args.rss_factor),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite kernels")
        payload = run_kernel_benchmark(
            policies=tuple(args.policies or KERNEL_POLICIES),
            num_devices=args.devices if args.devices is not None else KERNEL_NUM_DEVICES,
            horizon=args.slots if args.slots is not None else KERNEL_HORIZON_SLOTS,
            repeats=args.repeats if args.repeats is not None else 1,
            floor=args.floor if args.floor is not None else KERNEL_SPEEDUP_FLOOR,
        )
        print(format_kernel_report(payload))
    elif args.suite == "churn":
        for flag, value in (
            ("--runs", args.runs),
            ("--workers", args.workers),
            ("--slots", args.slots),
            ("--rss-factor", args.rss_factor),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite churn")
        payload = run_churn_benchmark(
            policies=tuple(args.policies or CHURN_POLICIES),
            num_devices=args.devices if args.devices is not None else CHURN_NUM_DEVICES,
            repeats=args.repeats if args.repeats is not None else 3,
            floor=args.floor if args.floor is not None else CHURN_SPEEDUP_FLOOR,
        )
        print(format_churn_report(payload))
    elif args.suite == "compiled":
        for flag, value in (
            ("--runs", args.runs),
            ("--workers", args.workers),
            ("--rss-factor", args.rss_factor),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite compiled")
        if args.policies is not None and len(args.policies) != 1:
            parser.error("--suite compiled takes exactly one --policies entry")
        payload = run_compiled_benchmark(
            policy=args.policies[0] if args.policies else COMPILED_POLICY,
            num_devices=(
                args.devices if args.devices is not None else COMPILED_NUM_DEVICES
            ),
            horizon=(
                args.slots if args.slots is not None else COMPILED_HORIZON_SLOTS
            ),
            repeats=args.repeats if args.repeats is not None else 1,
            floor=args.floor if args.floor is not None else COMPILED_SPEEDUP_FLOOR,
        )
        print(format_compiled_report(payload))
    elif args.suite == "shard":
        for flag, value in (
            ("--runs", args.runs),
            ("--rss-factor", args.rss_factor),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite shard")
        if args.policies is not None and len(args.policies) != 1:
            parser.error("--suite shard takes exactly one --policies entry")
        megascale_payload = None
        if args.attach_megascale is not None:
            with open(args.attach_megascale) as handle:
                megascale_payload = json.load(handle)
        payload = run_shard_benchmark(
            policy=args.policies[0] if args.policies else SHARD_POLICY,
            num_devices=args.devices if args.devices is not None else SHARD_NUM_DEVICES,
            horizon=args.slots if args.slots is not None else SHARD_HORIZON_SLOTS,
            workers=args.workers,
            repeats=args.repeats if args.repeats is not None else 1,
            floor=args.floor if args.floor is not None else SHARD_SPEEDUP_FLOOR,
            megascale_payload=megascale_payload,
        )
        print(format_shard_report(payload))
    elif args.suite == "faults":
        for flag, value in (
            ("--policies", args.policies),
            ("--runs", args.runs),
            ("--repeats", args.repeats),
            ("--floor", args.floor),
            ("--rss-factor", args.rss_factor),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite faults")
        payload = run_faults_benchmark(
            num_devices=(
                args.devices if args.devices is not None else FAULTS_NUM_DEVICES
            ),
            horizon=args.slots if args.slots is not None else FAULTS_HORIZON_SLOTS,
            workers=args.workers if args.workers is not None else FAULTS_WORKERS,
        )
        print(format_faults_report(payload))
    elif args.suite == "telemetry":
        for flag, value in (
            ("--runs", args.runs),
            ("--rss-factor", args.rss_factor),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite telemetry")
        if args.policies is not None and len(args.policies) != 1:
            parser.error("--suite telemetry takes exactly one --policies entry")
        payload = run_telemetry_benchmark(
            policy=args.policies[0] if args.policies else TELEMETRY_POLICY,
            num_devices=(
                args.devices
                if args.devices is not None
                else TELEMETRY_NUM_DEVICES
            ),
            horizon=(
                args.slots if args.slots is not None else TELEMETRY_HORIZON_SLOTS
            ),
            workers=args.workers,
            repeats=args.repeats if args.repeats is not None else 3,
            floor=args.floor if args.floor is not None else TELEMETRY_OVERHEAD_FLOOR,
        )
        print(format_telemetry_report(payload))
    elif args.suite == "registry":
        for flag, value in (
            ("--repeats", args.repeats),
            ("--rss-factor", args.rss_factor),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite registry")
        if args.policies is not None and len(args.policies) != 1:
            parser.error("--suite registry takes exactly one --policies entry")
        payload = run_registry_benchmark(
            policy=args.policies[0] if args.policies else REGISTRY_POLICY,
            num_devices=(
                args.devices if args.devices is not None else REGISTRY_NUM_DEVICES
            ),
            horizon=(
                args.slots if args.slots is not None else REGISTRY_HORIZON_SLOTS
            ),
            runs=args.runs if args.runs is not None else REGISTRY_RUNS,
            workers=args.workers,
            floor=args.floor if args.floor is not None else REGISTRY_SPEEDUP_FLOOR,
        )
        print(format_registry_report(payload))
    elif args.suite == "results":
        for flag, value in (
            ("--workers", args.workers),
            ("--repeats", args.repeats),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite results")
        if args.policies is not None and len(args.policies) != 1:
            parser.error("--suite results takes exactly one --policies entry")
        payload = run_results_benchmark(
            policy=args.policies[0] if args.policies else RESULTS_POLICY,
            num_devices=args.devices if args.devices is not None else RESULTS_NUM_DEVICES,
            horizon=args.slots if args.slots is not None else RESULTS_HORIZON_SLOTS,
            runs=args.runs if args.runs is not None else RESULTS_RUNS,
            rss_factor=args.rss_factor if args.rss_factor is not None else RESULTS_RSS_FACTOR,
            floor=args.floor if args.floor is not None else RESULTS_CONSTRUCTION_FLOOR,
        )
        print(format_results_report(payload))
    else:
        for flag, value in (
            ("--devices", args.devices),
            ("--slots", args.slots),
            ("--floor", args.floor),
            ("--rss-factor", args.rss_factor),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --suite backend")
        payload = run_benchmark(
            policies=tuple(args.policies or DEFAULT_POLICIES),
            runs=args.runs if args.runs is not None else 3,
            workers=args.workers,
            repeats=args.repeats if args.repeats is not None else 2,
        )
        print(format_report(payload))
    text = json.dumps(payload, indent=2)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(f"JSON written to {args.json}")
    else:
        print(text)
    return 0 if payload["headline"]["meets_floor"] else 1


if __name__ == "__main__":
    sys.exit(main())
