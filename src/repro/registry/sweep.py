"""Incremental (config × seed) sweep orchestration over the run registry.

A sweep is a list of :class:`SweepCase` cells — a named scenario to run
``runs`` times from ``base_seed`` — typically expanded from a parameter
grid with :func:`expand_grid`.  :func:`run_sweep` partitions every case's
(config × seed) cells into cached-hit vs missing against the registry and
feeds **only the missing cells of all its cases** into the one run loop
(:func:`~repro.sim.runner.run_cells`, the loop ``run_many`` uses): missing
cells of different cases with identical physics — one network map, delay
model, slot length and horizon, e.g. every policy and device count of one
network count — advance as row blocks of one engine (split into one stack
per worker on a pool), or run solo on a backend without stacking.  Fresh
payloads are committed as they land, and cached and fresh reducer states
merge with the associative ``merge`` — in run-index order, so the
per-case output is bit-identical to a fully cold sweep, or to a cold
``run_many`` per case.

A fully warm case never constructs a process pool: its cells load straight
from the store and the sweep degenerates to a directory read.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.reducers import resolve_reducer
from repro.registry.store import CacheSpec, resolve_cache
from repro.sim.backends import DEFAULT_BACKEND, get_backend
from repro.sim.runner import RunCells, run_cells, validate_execution
from repro.sim.scenario import Scenario


@dataclass(frozen=True)
class SweepCase:
    """One sweep cell group: a scenario executed ``runs`` times."""

    name: str
    scenario: Scenario
    runs: int
    base_seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


@dataclass
class SweepReport:
    """Per-case finalized outputs plus the sweep's cache accounting."""

    results: dict[str, Any]
    cells_total: int
    cells_cached: int
    cells_computed: int
    seconds: float

    @property
    def warm_fraction(self) -> float:
        return self.cells_cached / self.cells_total if self.cells_total else 0.0


def expand_grid(
    factory: Callable[..., Scenario],
    grid: Mapping[str, Sequence],
    runs: int,
    base_seed: int = 0,
    name_fn: Callable[[dict], str] | None = None,
) -> list[SweepCase]:
    """Cartesian-product a parameter grid into sweep cases.

    ``factory(**params)`` builds each scenario; case names default to the
    ``key=value`` join of the grid point (override with ``name_fn``).
    """
    names = list(grid)
    cases = []
    for combo in itertools.product(*(grid[name] for name in names)):
        params = dict(zip(names, combo))
        name = (
            name_fn(params)
            if name_fn is not None
            else ",".join(f"{key}={value}" for key, value in params.items())
        )
        cases.append(
            SweepCase(
                name=name,
                scenario=factory(**params),
                runs=runs,
                base_seed=base_seed,
                params=params,
            )
        )
    seen: set[str] = set()
    for case in cases:
        if case.name in seen:
            raise ValueError(f"duplicate sweep case name {case.name!r}")
        seen.add(case.name)
    return cases


def run_sweep(
    cases: Sequence[SweepCase],
    reduce,
    cache: "str | CacheSpec" = "reuse",
    backend: str = DEFAULT_BACKEND,
    workers: int | None = None,
    record_probabilities: bool | None = None,
) -> SweepReport:
    """Run a sweep incrementally against the registry (see module docstring).

    ``reduce`` is mandatory: the registry stores reducer payloads.
    ``cache="off"`` still works (everything computes, nothing is stored) so
    a sweep definition can be benchmarked cold without touching the store.
    The store is resolved once for the whole sweep, and ``cells_cached``
    counts the hits it served.
    """
    if not cases:
        raise ValueError("at least one sweep case is required")
    validate_execution(backend, workers=workers)
    reducer = resolve_reducer(reduce)
    if reducer is None:
        raise ValueError("run_sweep requires reduce= (see repro.analysis.reducers)")
    if record_probabilities is None:
        record_probabilities = reducer.needs_probabilities
    spec = resolve_cache(cache)
    store = spec.resolve_store() if spec.enabled else None
    hits_before = store.hits if store is not None else 0

    started = time.perf_counter()
    groups = [RunCells(case.scenario, case.runs, case.base_seed) for case in cases]
    run_cells(
        groups,
        get_backend(backend),
        reducer,
        record_probabilities,
        workers=workers,
        store=store,
        reuse=spec.mode == "reuse",
    )
    results = {
        case.name: group.output(reducer) for case, group in zip(cases, groups)
    }
    cells_total = sum(case.runs for case in cases)
    cells_cached = store.hits - hits_before if store is not None else 0
    return SweepReport(
        results=results,
        cells_total=cells_total,
        cells_cached=cells_cached,
        cells_computed=cells_total - cells_cached,
        seconds=time.perf_counter() - started,
    )
