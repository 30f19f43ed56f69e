"""Pluggable slot-execution backends.

A backend is a :class:`~repro.sim.backends.base.SlotExecutor`: it executes
one simulation run (``scenario``, ``seed``) and returns the full
:class:`~repro.sim.metrics.SimulationResult`.  All backends are bit-exact —
for any fixed seed they produce identical results — and differ only in how
fast they get there:

* ``"event"`` — :class:`EventSlotExecutor`, the reference implementation:
  a plain loop over the slot indices, one device at a time.
* ``"vectorized"`` — :class:`VectorizedSlotExecutor`, the whole population
  as the single in-process shard of the slot engine
  (:mod:`repro.sim.sharded.engine`): batched NumPy physics, churn-native
  in-loop topology handling (joins/leaves/visibility changes as membership
  edits on persistent kernel groups, driven by the run's precomputed
  :class:`~repro.sim.backends.base.TopologyPlan`) and batched policy
  kernels (:mod:`repro.algorithms.kernels`) for the learning policies.
  ``VectorizedSlotExecutor(use_kernels=False)`` puts every learning policy
  on the per-device scalar path, so benchmarks and the kernel tests can
  measure the kernel layer in isolation.
* ``"sharded"`` — :class:`~repro.sim.sharded.ShardedSlotExecutor`: the same
  engine on K shards, synchronised once per slot by an all-reduce of
  per-network occupancy.  The registry default is the 2-shard in-process
  configuration; ``run_many(shards=..., workers=...)`` configures real
  fan-out.

Third-party backends can be added with :func:`register_backend`; the runner
resolves names through :func:`get_backend`.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.backends.base import (
    DeviceRuntime,
    RunSeed,
    RunState,
    SlotExecutor,
    SlotRecorder,
    build_policies,
    derive_run_streams,
    execute_reference_slot,
    policy_rank_table,
    prepare_run,
    resolve_run_seed,
)
from repro.sim.backends.event import EventSlotExecutor
from repro.sim.backends.vectorized import VectorizedSlotExecutor


def _sharded_factory() -> SlotExecutor:
    # Imported lazily so the sharded subsystem (which imports this package's
    # base module) never races the registry's own import.
    from repro.sim.sharded.executor import ShardedSlotExecutor

    return ShardedSlotExecutor()

#: Backend used when callers do not ask for one explicitly.  The event
#: backend remains the default for direct ``run_simulation`` calls so the
#: reference semantics stay front and centre; the experiments layer opts
#: into ``"vectorized"`` through :class:`repro.experiments.common.ExperimentConfig`.
DEFAULT_BACKEND = "event"

_BACKENDS: dict[str, Callable[[], SlotExecutor]] = {
    EventSlotExecutor.name: EventSlotExecutor,
    VectorizedSlotExecutor.name: VectorizedSlotExecutor,
    "sharded": _sharded_factory,
}


def register_backend(
    name: str, factory: Callable[[], SlotExecutor], overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``."""
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _BACKENDS and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


def available_backends() -> tuple[str, ...]:
    """Names of all registered execution backends, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> SlotExecutor:
    """Instantiate the backend registered under ``name``."""
    if name not in _BACKENDS:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    return _BACKENDS[name]()


__all__ = [
    "DEFAULT_BACKEND",
    "DeviceRuntime",
    "EventSlotExecutor",
    "RunSeed",
    "RunState",
    "SlotExecutor",
    "SlotRecorder",
    "VectorizedSlotExecutor",
    "available_backends",
    "build_policies",
    "derive_run_streams",
    "execute_reference_slot",
    "get_backend",
    "policy_rank_table",
    "prepare_run",
    "register_backend",
    "resolve_run_seed",
]
