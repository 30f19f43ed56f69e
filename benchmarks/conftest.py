"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper by calling the
corresponding ``repro.experiments`` driver with a scaled-down configuration
(override with the environment variables below) and printing the rows/series it
produces, so running ``pytest benchmarks/ --benchmark-only -s`` reproduces the
whole evaluation section at laptop scale.

Environment variables:

* ``REPRO_BENCH_RUNS`` — number of runs per configuration (default 3).
* ``REPRO_BENCH_HORIZON`` — horizon in slots for static experiments
  (default 600; dynamic/trace experiments keep their natural horizons).
* ``REPRO_BENCH_BACKEND`` — slot-execution backend (default ``vectorized``;
  any name from ``repro.sim.backends.available_backends()``; all backends
  produce bit-identical results).
* ``REPRO_BENCH_WORKERS`` — process-pool width for multi-run experiments
  (default unset = serial; a driver's grid then runs as one stack per
  worker, and parallel results are bit-identical to serial).
  With ``REPRO_BENCH_SHARDS`` set the width applies *inside* each run
  (shard worker processes) instead of across runs.
* ``REPRO_BENCH_SHARDS`` — device-axis shard count per run; setting it
  forces ``backend="sharded"`` (results stay bit-identical to the other
  backends for any shard count).
* ``REPRO_BENCH_PAPER=1`` — run each driver at the paper's setting, its
  ``paper_config()`` (runs and horizon; slow — combine with
  ``REPRO_BENCH_WORKERS`` to spread the runs over cores).
"""

from __future__ import annotations

import json
import os

from repro.experiments.common import ExperimentConfig


def bench_config(
    driver, default_runs: int = 3, default_horizon: int | None = 600
) -> ExperimentConfig:
    """The configuration for ``driver`` (a ``repro.experiments`` module),
    with the environment's overrides.

    At paper scale the runs and horizon are the driver's
    ``paper_config()``; otherwise they are the defaults, unless
    ``REPRO_BENCH_RUNS`` / ``REPRO_BENCH_HORIZON`` override them.  The
    backend, workers and shards come from the environment either way.
    """
    backend = os.environ.get("REPRO_BENCH_BACKEND", "vectorized")
    workers_env = os.environ.get("REPRO_BENCH_WORKERS")
    workers = int(workers_env) if workers_env is not None else None
    shards_env = os.environ.get("REPRO_BENCH_SHARDS")
    shards = int(shards_env) if shards_env is not None else None
    if shards is not None:
        backend = "sharded"
    if os.environ.get("REPRO_BENCH_PAPER") == "1":
        return driver.paper_config().replace(
            backend=backend,
            workers=workers,
            shards=shards,
        )
    runs = int(os.environ.get("REPRO_BENCH_RUNS", default_runs))
    horizon_env = os.environ.get("REPRO_BENCH_HORIZON")
    if horizon_env is not None:
        horizon: int | None = int(horizon_env)
    else:
        horizon = default_horizon
    return ExperimentConfig(
        runs=runs,
        horizon_slots=horizon,
        backend=backend,
        workers=workers,
        shards=shards,
    )


def report(title: str, payload) -> None:
    """Print an experiment's output under a recognisable header."""
    print(f"\n=== {title} ===")
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, indent=2, default=str))
