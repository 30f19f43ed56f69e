"""Content-addressed run registry: skip-if-cached experiments.

Every (config × seed) cell of a reduced multi-run experiment is addressed
by a canonical fingerprint (:mod:`repro.registry.fingerprint`) that hashes
exactly the result-determining configuration — scenario, policies, physics,
horizon, seeding, recording options, reducer — and deliberately excludes
the execution knobs the equivalence suite guarantees are result-neutral
(``backend``, ``workers``, ``shards``, checkpoint cadence).  Finalized reducer payloads live in a content-addressed store
(:mod:`repro.registry.store`) under ``~/.cache/repro-runs`` or
``$REPRO_RUN_CACHE``; :mod:`repro.registry.sweep` expands parameter grids
and schedules only the cells the store does not already hold.

Thread it through any experiment with ``run_many(..., cache="reuse")`` or
``ExperimentConfig(cache="reuse")``, and manage the store with
``python -m repro.registry`` (``ls`` / ``inspect`` / ``gc`` / ``verify``).
"""

from repro.registry.fingerprint import (
    CellKey,
    FINGERPRINT_VERSION,
    canonical_run_config,
    cell_key,
    code_fingerprint,
    config_fingerprint,
    describe,
    grid_keys,
)
from repro.registry.store import (
    CACHE_ENV_VAR,
    CACHE_MODES,
    CacheError,
    CacheSpec,
    MISS,
    RunStore,
    STORE_FORMAT_VERSION,
    default_cache_root,
    resolve_cache,
)
from repro.registry.sweep import SweepCase, SweepReport, expand_grid, run_sweep

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_MODES",
    "CacheError",
    "CacheSpec",
    "CellKey",
    "FINGERPRINT_VERSION",
    "MISS",
    "RunStore",
    "STORE_FORMAT_VERSION",
    "SweepCase",
    "SweepReport",
    "canonical_run_config",
    "cell_key",
    "code_fingerprint",
    "config_fingerprint",
    "default_cache_root",
    "describe",
    "expand_grid",
    "grid_keys",
    "resolve_cache",
    "run_sweep",
]
