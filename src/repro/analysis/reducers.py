"""Streaming reductions over simulation runs.

Multi-run experiments derive small statistics (switch counts, downloads,
fairness, stability) from each run's full slot-by-slot record.  A
:class:`Reducer` moves that derivation *into* the producing side —
``run_many(..., reduce=...)`` applies :meth:`Reducer.map` inside each pool
worker (or inline between serial runs), so only kilobyte payloads cross the
process boundary and peak memory stays O(one run) regardless of how many
runs an experiment requests.

The contract has three parts:

``map(result) -> payload``
    Reduce one :class:`~repro.sim.metrics.SimulationResult` to a small
    payload.  Runs in the worker, while the full record is still local.
``merge(a, b) -> payload``
    Combine two payloads.  **Must be associative** so that reducing runs in
    chunks and merging the chunk payloads equals reducing all runs in one
    sweep — the property the reducer test-suite pins down.
``finalize(payload) -> output``
    Turn the merged payload into the experiment-facing output (defaults to
    the identity).

Reducers that do not read the selection-probability tensor declare
``needs_probabilities = False``; ``run_many`` then skips recording the
tensor altogether, which removes the dominant share of a run's footprint
before the run even finishes.

Sharded runs add a second, *device-partitioned* reduction axis.  A reducer
that can compute its per-run payload from per-shard slot windows implements
the shard protocol (``shard_capable`` / :meth:`Reducer.shard_map` /
:meth:`Reducer.shard_merge` / :meth:`Reducer.shard_finalize`): the sharded
engine then streams each shard's bounded :class:`ShardWindow` views through
``shard_map`` as the run advances — no process ever holds the full
``(devices × slots)`` blocks — merges the shard states in ascending device
order and finalizes them into exactly the payload ``map(full_result)``
would have produced (up to float summation order).  Reducers without the
protocol still work with the sharded backend through a gather-then-map
fallback.

Built-in vocabulary (also addressable by name through ``run_many``):

* ``"summary"`` — :class:`SummaryReducer`: the per-run headline scalars
  (switches, downloads, fairness) as one row per run.
* ``"stability"`` — :class:`StabilityReducer`: Definition-2 stable-state
  outcome per run (needs probabilities).
* ``"downloads"`` — :class:`DownloadReducer`: per-run download statistics
  (Table V / Fig. 5 reproductions).
* :class:`TimeSeriesReducer` — downsampled per-slot series, merged as a
  running element-wise mean across runs.
* :class:`SeriesReducer` — each run's whole per-slot series, kept in run
  order for a driver to aggregate with its own expressions (Figs. 4, 7, 8
  and 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.analysis.aggregate import downsample_series
from repro.analysis.fairness import download_jains_index, jains_index
from repro.analysis.stability import STABILITY_THRESHOLD, stability_report
from repro.sim.metrics import SimulationResult


@dataclass(frozen=True)
class RunSummaries:
    """Finalized output of the per-run-row reducers: one dict per run.

    Thin convenience wrapper so experiment drivers can pull cross-run
    aggregates without re-looping in Python.
    """

    rows: tuple[dict, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def values(self, key: str) -> np.ndarray:
        """Per-run values of ``key`` as a float array (``None`` -> NaN)."""
        return np.asarray(
            [
                float("nan") if row.get(key) is None else float(row[key])
                for row in self.rows
            ],
            dtype=float,
        )

    def mean(self, key: str) -> float:
        return float(np.nanmean(self.values(key)))

    def std(self, key: str) -> float:
        return float(np.nanstd(self.values(key)))

    def median(self, key: str) -> float:
        return float(np.nanmedian(self.values(key)))


@dataclass(frozen=True)
class ShardWindow:
    """One shard's slot window, as handed to :meth:`Reducer.shard_map`.

    ``result`` is a normal :class:`~repro.sim.metrics.SimulationResult`
    whose blocks cover only this shard's devices over slots
    ``[slot_start, slot_start + result.num_slots)`` of a
    ``total_slots``-long run (block views — do not retain them past the
    call; copy what must survive into the state).
    """

    result: SimulationResult
    slot_start: int
    total_slots: int
    seed: int


class Reducer:
    """Base streaming reducer (see the module docstring for the contract)."""

    #: Registry / display name.
    name: str = "reducer"
    #: Whether :meth:`map` reads ``result.probabilities_3d``.  When False,
    #: ``run_many`` skips recording the tensor for reduced runs.
    needs_probabilities: bool = True

    def map(self, result: SimulationResult):
        raise NotImplementedError

    def merge(self, a, b):
        raise NotImplementedError

    def finalize(self, payload):
        return payload

    # ------------------------------------------------ device-partition axis

    def shard_capable(self) -> bool:
        """Whether this reducer implements the shard (device-partition)
        protocol; the sharded backend falls back to gather-then-map when
        False."""
        return False

    def shard_map(self, window: ShardWindow, state=None):
        """Fold one shard slot-window into the shard's running state.

        Called once per window in ascending slot order within one shard
        (``state=None`` on the first call).  Must not retain references to
        the window's blocks — they are reused for the next window.
        """
        raise NotImplementedError

    def shard_merge(self, a, b):
        """Merge two adjacent shards' states (ascending device order)."""
        raise NotImplementedError

    def shard_finalize(self, state):
        """Turn the merged shard state into the :meth:`map` payload."""
        raise NotImplementedError

    def reduce_all(self, results: Iterable[SimulationResult]):
        """Map/merge/finalize an iterable of results (streaming, in order)."""
        merged = None
        for result in results:
            payload = self.map(result)
            merged = payload if merged is None else self.merge(merged, payload)
        if merged is None:
            raise ValueError("at least one result is required")
        return self.finalize(merged)


class RowsReducer(Reducer):
    """Reducer whose payload is a list of per-run row dicts.

    List concatenation is exactly associative, so reduce-then-merge and
    merge-then-reduce agree bit-for-bit; seed order is preserved because
    ``run_many`` merges payloads in submission order.
    """

    def row(self, result: SimulationResult) -> dict:
        raise NotImplementedError

    def map(self, result: SimulationResult) -> list[dict]:
        return [self.row(result)]

    def merge(self, a: list[dict], b: list[dict]) -> list[dict]:
        return a + b

    def finalize(self, payload: list[dict]) -> RunSummaries:
        return RunSummaries(rows=tuple(payload))


class SummaryReducer(RowsReducer):
    """Per-run headline scalars: switches, downloads, fairness.

    Rows are :meth:`SimulationResult.summary` verbatim (single source of
    truth for the headline metrics) plus the seed, the run's total switch
    count and Jain's fairness index of the per-device downloads.
    """

    name = "summary"
    needs_probabilities = False

    def row(self, result: SimulationResult) -> dict:
        return {
            "seed": result.seed,
            **result.summary(),
            "total_switches": result.total_switches(),
            "jains_index": download_jains_index(result),
        }

    # Shard protocol: every headline scalar derives from per-device
    # downloads and switch counts, both of which accumulate over slot
    # windows and concatenate over device shards.
    def shard_capable(self) -> bool:
        return True

    def shard_map(self, window: ShardWindow, state=None):
        downloads = window.result.downloads_mb()
        switches = window.result.switch_counts()
        if state is None:
            return {
                "seed": window.seed,
                "num_slots": window.total_slots,
                "downloads": downloads.astype(float),
                "switches": switches.astype(np.int64),
            }
        state["downloads"] += downloads
        state["switches"] += switches
        return state

    def shard_merge(self, a, b):
        return {
            "seed": a["seed"],
            "num_slots": a["num_slots"],
            "downloads": np.concatenate([a["downloads"], b["downloads"]]),
            "switches": np.concatenate([a["switches"], b["switches"]]),
        }

    def shard_finalize(self, state) -> list[dict]:
        downloads = state["downloads"]
        switches = state["switches"]
        return [
            {
                "seed": state["seed"],
                "num_devices": float(downloads.size),
                "num_slots": float(state["num_slots"]),
                "mean_switches": float(np.mean(switches)) if switches.size else 0.0,
                "median_download_mb": float(np.median(downloads)) if downloads.size else 0.0,
                "std_download_mb": float(np.std(downloads)) if downloads.size else 0.0,
                "total_download_gb": float(np.sum(downloads)) / 1024.0,
                "total_switches": int(np.sum(switches)),
                "jains_index": jains_index(downloads),
            }
        ]


class DownloadReducer(RowsReducer):
    """Per-run download statistics (Table V / Fig. 5 reproductions)."""

    name = "downloads"
    needs_probabilities = False

    def __init__(self, device_ids: Sequence[int] | None = None) -> None:
        self.device_ids = tuple(device_ids) if device_ids is not None else None

    def row(self, result: SimulationResult) -> dict:
        downloads = result.downloads_mb(self.device_ids)
        costs = result.switching_costs_mb(self.device_ids)
        return {
            "seed": result.seed,
            "median_download_mb": float(np.median(downloads)) if downloads.size else 0.0,
            "mean_download_mb": float(np.mean(downloads)) if downloads.size else 0.0,
            "std_download_mb": float(np.std(downloads)) if downloads.size else 0.0,
            "jains_index": jains_index(downloads),
            "total_switching_cost_mb": float(np.sum(costs)),
        }

    # Shard protocol: the per-device download/cost vectors partition over
    # shards (each selected device lives in exactly one shard).
    def shard_capable(self) -> bool:
        return True

    def _window_rows(self, window: ShardWindow):
        if self.device_ids is None:
            return None
        wanted = set(self.device_ids)
        return [d for d in window.result.device_ids if d in wanted]

    def shard_map(self, window: ShardWindow, state=None):
        rows = self._window_rows(window)
        downloads = window.result.downloads_mb(rows)
        costs = window.result.switching_costs_mb(rows)
        if state is None:
            return {
                "seed": window.seed,
                "downloads": downloads.astype(float),
                "costs": costs.astype(float),
            }
        state["downloads"] += downloads
        state["costs"] += costs
        return state

    def shard_merge(self, a, b):
        return {
            "seed": a["seed"],
            "downloads": np.concatenate([a["downloads"], b["downloads"]]),
            "costs": np.concatenate([a["costs"], b["costs"]]),
        }

    def shard_finalize(self, state) -> list[dict]:
        downloads = state["downloads"]
        return [
            {
                "seed": state["seed"],
                "median_download_mb": float(np.median(downloads)) if downloads.size else 0.0,
                "mean_download_mb": float(np.mean(downloads)) if downloads.size else 0.0,
                "std_download_mb": float(np.std(downloads)) if downloads.size else 0.0,
                "jains_index": jains_index(downloads),
                "total_switching_cost_mb": float(np.sum(state["costs"])),
            }
        ]


class StabilityReducer(RowsReducer):
    """Definition-2 stable-state outcome of each run (Figs. 3/6, Table IV)."""

    name = "stability"
    needs_probabilities = True

    def __init__(self, threshold: float = STABILITY_THRESHOLD) -> None:
        self.threshold = threshold

    def row(self, result: SimulationResult) -> dict:
        report = stability_report(result, self.threshold)
        return {
            "seed": result.seed,
            "stable": bool(report.stable),
            "stable_slot": report.stable_slot,
            "at_nash": bool(report.at_nash_equilibrium),
        }


def mean_rate_series(result: SimulationResult) -> np.ndarray:
    """Per-slot mean observed bit rate over active devices (0 when none)."""
    counts = result.active_2d.sum(axis=0)
    totals = result.rates_2d.sum(axis=0)  # inactive slots record rate 0
    return np.divide(
        totals,
        counts,
        out=np.zeros(result.num_slots, dtype=float),
        where=counts > 0,
    )


def switch_fraction_series(result: SimulationResult) -> np.ndarray:
    """Per-slot fraction of active devices that switched networks."""
    counts = result.active_2d.sum(axis=0)
    switched = result.switches_2d.sum(axis=0)
    return np.divide(
        switched.astype(float),
        counts,
        out=np.zeros(result.num_slots, dtype=float),
        where=counts > 0,
    )


class TimeSeriesReducer(Reducer):
    """Downsampled per-slot series, merged as a running mean across runs.

    ``series_fn`` maps a result to a 1-D per-slot series (defaults to
    :func:`mean_rate_series`); the series is bucketed to ``points`` values
    in the worker, and payloads merge as count-weighted element-wise means,
    which is associative up to float rounding.
    """

    name = "timeseries"
    needs_probabilities = False

    def __init__(
        self,
        series_fn: Callable[[SimulationResult], np.ndarray] = mean_rate_series,
        points: int = 60,
    ) -> None:
        self.series_fn = series_fn
        self.points = points

    def map(self, result: SimulationResult) -> dict:
        series = downsample_series(
            np.asarray(self.series_fn(result), dtype=float), self.points
        )
        return {"count": 1, "series": series}

    def merge(self, a: dict, b: dict) -> dict:
        total = a["count"] + b["count"]
        series = (a["count"] * a["series"] + b["count"] * b["series"]) / total
        return {"count": total, "series": series}

    # Shard protocol: the built-in series are per-slot ratios of
    # device-axis sums, which add across both slot windows and shards.
    # A custom ``series_fn`` is an arbitrary function of the full record,
    # so those instances fall back to gather-then-map.
    def shard_capable(self) -> bool:
        return self.series_fn in (mean_rate_series, switch_fraction_series)

    def shard_map(self, window: ShardWindow, state=None):
        if state is None:
            state = {
                "totals": np.zeros(window.total_slots, dtype=float),
                "counts": np.zeros(window.total_slots, dtype=float),
            }
        result = window.result
        span = slice(window.slot_start, window.slot_start + result.num_slots)
        state["counts"][span] += result.active_2d.sum(axis=0)
        if self.series_fn is mean_rate_series:
            state["totals"][span] += result.rates_2d.sum(axis=0, dtype=float)
        else:
            state["totals"][span] += result.switches_2d.sum(axis=0)
        return state

    def shard_merge(self, a, b):
        return {
            "totals": a["totals"] + b["totals"],
            "counts": a["counts"] + b["counts"],
        }

    def shard_finalize(self, state) -> dict:
        counts = state["counts"]
        series = np.divide(
            state["totals"],
            counts,
            out=np.zeros(counts.size, dtype=float),
            where=counts > 0,
        )
        return {"count": 1, "series": downsample_series(series, self.points)}


class SeriesReducer(Reducer):
    """Each run's ``series_fn(result)``, kept whole and in run order.

    The finalized output is the list ``[series_fn(r) for r in results]``:
    payloads merge by list concatenation, as :class:`RowsReducer` rows do,
    so a driver aggregates the per-run series with exactly the float
    expressions it would apply to full results (``mean_of_series`` over
    the runs, say), which a running mean would not reproduce.  ``series_fn``
    must not read the probability tensor, and belongs in
    :mod:`repro.analysis`, whose source the registry's code fingerprint
    covers.  A series function reads the whole record, so sharded runs
    gather then map.
    """

    name = "series"
    needs_probabilities = False

    def __init__(
        self, series_fn: Callable[[SimulationResult], np.ndarray]
    ) -> None:
        self.series_fn = series_fn

    def map(self, result: SimulationResult) -> list[np.ndarray]:
        return [self.series_fn(result)]

    def merge(self, a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
        return a + b


#: Built-in reducers addressable by name through ``run_many(reduce="...")``.
_REDUCERS: dict[str, Callable[[], Reducer]] = {
    "summary": SummaryReducer,
    "downloads": DownloadReducer,
    "stability": StabilityReducer,
    "timeseries": TimeSeriesReducer,
}


def available_reducers() -> tuple[str, ...]:
    """Names of the built-in reducers."""
    return tuple(sorted(_REDUCERS))


def resolve_reducer(reduce: "Reducer | str | None") -> Reducer | None:
    """Resolve ``run_many``'s ``reduce`` argument to a reducer instance."""
    if reduce is None:
        return None
    if isinstance(reduce, Reducer):
        return reduce
    if isinstance(reduce, str):
        try:
            return _REDUCERS[reduce]()
        except KeyError:
            raise KeyError(
                f"unknown reducer {reduce!r}; "
                f"available: {', '.join(available_reducers())}"
            ) from None
    raise TypeError(
        f"reduce must be a Reducer, a reducer name or None, got {type(reduce)!r}"
    )
