"""Megascale — million-device populations on the sharded engine.

The ROADMAP's north star asks for "heavy traffic from millions of users";
this driver demonstrates it: a :class:`~repro.sim.sharded.HomogeneousPopulation`
of up to 10\\ :sup:`6` learning devices contending for a handful of networks,
executed by the ``"sharded"`` backend with the windowed in-shard reduction —
so no process ever materialises the full device list, the full policy
population, or an ``O(devices × slots)`` result block.  Peak RSS is bounded
by one shard's state (policies + a ``devices/shards × window`` recorder
window) plus the reducer's per-device scalars, which
``benchmarks/bench_backend_speedup.py --suite shard`` records as
``BENCH_sharded_population.json``.

Run it scaled down from the benchmark harness (the test-suite default is a
few thousand devices), or at full scale from the command line::

    PYTHONPATH=src python -m repro.experiments.megascale \
        --devices 1000000 --slots 1000 --shards 8 --workers 4 --dtype float32
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from repro.analysis.reducers import SummaryReducer
from repro.sim.runner import validate_execution
from repro.sim.sharded import (
    CheckpointConfig,
    HomogeneousPopulation,
    ShardedSlotExecutor,
)
from repro.telemetry import scoped_telemetry_dir

#: Scaled-down defaults (the full-scale acceptance run is CLI-driven).
DEFAULT_DEVICES = 5000
DEFAULT_SLOTS = 200
DEFAULT_BANDWIDTHS = (4.0, 7.0, 22.0)


def peak_rss_bytes(include_children: bool = True) -> int | None:
    """High-water RSS of this process (and reaped children) in bytes."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return int(peak) * (1 if sys.platform == "darwin" else 1024)


def run(
    num_devices: int = DEFAULT_DEVICES,
    horizon_slots: int | None = None,
    policy: str = "exp3",
    shards: int | None = None,
    workers: int | None = None,
    dtype: str = "float32",
    window_slots: int = 256,
    seed: int = 0,
    heartbeat_seconds: float | None = 30.0,
    checkpoint: CheckpointConfig | None = None,
    resume_from: str | None = None,
    telemetry_dir: str | None = None,
) -> dict:
    """One megascale population run, summarised through the shard reducer.

    ``horizon_slots`` defaults to :data:`DEFAULT_SLOTS`; ``shards`` and
    ``workers`` default to ``min(cpu_count, 8)`` shards driven by one
    worker process per shard when the machine has the cores (``workers=1``
    falls back to the serial in-process lockstep, which is the bit-exact
    debugging mode).

    ``checkpoint`` enables periodic shard-state snapshots — a multi-hour
    million-device run survives worker crashes and machine restarts —
    and ``resume_from`` continues an interrupted run bit-exact from its
    last committed checkpoint (see ``README.md`` § Fault tolerance).

    ``telemetry_dir`` turns on the telemetry layer for the run
    (``REPRO_TELEMETRY_DIR``; see ``README.md`` § Observability): every
    process appends structured events there, and
    ``python -m repro.telemetry report`` reconstructs per-shard progress,
    barrier waits and phase shares from the merged streams.  The caller's
    setting comes back once the run ends.  ``heartbeat_seconds`` sets how
    often each worker writes a ``progress`` event there; without telemetry
    the run reports no progress.
    """
    slots = horizon_slots or DEFAULT_SLOTS
    cpus = os.cpu_count() or 1
    if shards is None:
        shards = max(1, min(cpus, 8))
    if workers is None:
        workers = min(shards, cpus)
    workers = max(1, min(workers, shards))

    population = HomogeneousPopulation(
        num_devices=num_devices,
        policy=policy,
        bandwidths=DEFAULT_BANDWIDTHS,
        horizon_slots=slots,
        name=f"megascale_d{num_devices}",
    )
    executor = ShardedSlotExecutor(
        shards=shards,
        workers=workers,
        dtype=dtype,
        window_slots=window_slots,
        heartbeat_seconds=heartbeat_seconds,
        checkpoint=checkpoint,
        resume_from=resume_from,
    )
    reducer = SummaryReducer()

    baseline_rss = peak_rss_bytes()
    started = time.perf_counter()
    with scoped_telemetry_dir(telemetry_dir):
        payload = executor.execute_population(population, seed, reducer)
    seconds = time.perf_counter() - started
    peak_rss = peak_rss_bytes()

    summary = reducer.finalize(payload).rows[0]
    device_slots = num_devices * slots
    return {
        "population": {
            "num_devices": num_devices,
            "horizon_slots": slots,
            "policy": policy,
            "networks": len(DEFAULT_BANDWIDTHS),
        },
        "execution": {
            "backend": "sharded",
            "shards": shards,
            "workers": workers,
            "dtype": dtype,
            "window_slots": window_slots,
            "cpu_count": cpus,
            "checkpoint_every_slots": (
                checkpoint.every_slots if checkpoint is not None else None
            ),
            "resumed_from": resume_from,
            "telemetry_dir": telemetry_dir,
        },
        "perf": {
            "seconds": seconds,
            "device_slots": device_slots,
            "device_slots_per_second": device_slots / max(seconds, 1e-9),
            "devices_per_second": num_devices / max(seconds, 1e-9),
            "baseline_rss_bytes": baseline_rss,
            "peak_rss_bytes": peak_rss,
        },
        "summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=1_000_000)
    parser.add_argument("--slots", type=int, default=1000)
    parser.add_argument("--policy", default="exp3")
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float32")
    parser.add_argument("--window", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how often each worker writes a progress event (with "
        "--telemetry-dir; follow them with python -m repro.telemetry "
        "--dir DIR tail --follow)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="enable periodic checkpoints into this directory",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=100,
        help="checkpoint cadence in slots (with --checkpoint-dir)",
    )
    parser.add_argument(
        "--keep",
        type=int,
        default=2,
        help="committed checkpoints to retain (with --checkpoint-dir)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume bit-exact from the last committed checkpoint in DIR",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="enable run telemetry: every process appends structured "
        "events under DIR (REPRO_TELEMETRY_DIR); inspect with "
        "python -m repro.telemetry tail|summary|report",
    )
    parser.add_argument("--json", default=None, help="write the payload here")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    # A bad --shards or --workers value fails here, not mid-run.
    validate_execution("sharded", workers=args.workers, shards=args.shards)
    payload = run(
        num_devices=args.devices,
        horizon_slots=args.slots,
        policy=args.policy,
        shards=args.shards,
        workers=args.workers,
        dtype=args.dtype,
        window_slots=args.window,
        seed=args.seed,
        heartbeat_seconds=args.heartbeat,
        checkpoint=(
            CheckpointConfig(
                every_slots=args.checkpoint_every,
                dir=args.checkpoint_dir,
                keep=args.keep,
            )
            if args.checkpoint_dir
            else None
        ),
        resume_from=args.resume,
        telemetry_dir=args.telemetry_dir,
    )
    text = json.dumps(payload, indent=2)
    print(text)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
