"""Columnar result layout and streaming-reduction suite.

Pins the PR-3 contracts:

* the struct-of-arrays :class:`SimulationResult` is **bit-identical** to the
  seed per-device-dict layout on both backends (the mapping views expose
  exactly the rows the old dicts held, as zero-copy views);
* the vectorized analysis rewrites (downloads, stability, distance) agree
  with straightforward per-device reference implementations of the seed
  semantics;
* ``run_many(..., reduce=...)`` produces the same output serially, on a
  process pool, and as a post-hoc reduction of the full results; and
* reducers are associative: reducing seed chunks and merging the payloads
  equals reducing all seeds in one sweep (reduce-then-merge ==
  merge-then-reduce).
"""

from __future__ import annotations

import numpy as np
import pytest

from test_backends import assert_results_identical, run_both

from repro.analysis.aggregate import downloads_over_runs, switch_counts_over_runs
from repro.analysis.fairness import download_jains_index, jains_index
from repro.analysis.reducers import (
    RunSummaries,
    SeriesReducer,
    StabilityReducer,
    SummaryReducer,
    TimeSeriesReducer,
    available_reducers,
    resolve_reducer,
)
from repro.analysis.reporting import format_run_summaries
from repro.analysis.stability import stability_report
from repro.analysis.distance import (
    distance_from_average_rate_series,
    distance_to_nash_series,
)
from repro.game.nash import distance_to_nash
from repro.registry import CacheSpec, RunStore
from repro.registry.fingerprint import cell_key, describe
from repro.sim.metrics import NO_NETWORK, DeviceAxisView, SimulationResult
from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import (
    PoissonChurn,
    churn_scenario,
    dynamic_join_leave_scenario,
    mixed_policy_scenario,
    setting1_scenario,
)

VIEW_FIELDS = (
    ("choices", "choices_2d"),
    ("rates_mbps", "rates_2d"),
    ("delays_s", "delays_2d"),
    ("switches", "switches_2d"),
    ("active", "active_2d"),
    ("probabilities", "probabilities_3d"),
)


class TestColumnarLayout:
    @pytest.mark.parametrize("backend", ("event", "vectorized"))
    def test_views_are_zero_copy_rows_of_the_blocks(self, tiny_setting1, backend):
        result = run_simulation(tiny_setting1, seed=3, backend=backend)
        for view_name, block_name in VIEW_FIELDS:
            view = getattr(result, view_name)
            block = getattr(result, block_name)
            assert isinstance(view, DeviceAxisView)
            assert view.array is block
            assert set(view) == set(result.device_ids)
            assert len(view) == len(result.device_ids)
            for row, device_id in enumerate(result.device_ids):
                assert np.shares_memory(view[device_id], block)
                assert np.array_equal(view[device_id], block[row])
                assert view[device_id].dtype == block.dtype

    def test_block_shapes_and_dtypes(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=0)
        devices, slots = len(result.device_ids), result.num_slots
        assert result.choices_2d.shape == (devices, slots)
        assert result.choices_2d.dtype == np.int64
        assert result.rates_2d.shape == (devices, slots)
        assert result.switches_2d.dtype == bool
        assert result.active_2d.dtype == bool
        assert result.probabilities_3d.shape == (devices, slots, len(result.networks))

    def test_seed_dict_layout_roundtrip_is_bit_identical(self, tiny_setting1):
        """Rebuilding from the per-device-dict layout loses nothing."""
        result = run_simulation(tiny_setting1, seed=7)
        rebuilt = SimulationResult.from_device_arrays(
            scenario_name=result.scenario_name,
            seed=result.seed,
            num_slots=result.num_slots,
            slot_duration_s=result.slot_duration_s,
            networks=result.networks,
            device_ids=result.device_ids,
            policy_names=result.policy_names,
            choices={d: result.choices[d] for d in result.device_ids},
            rates_mbps={d: result.rates_mbps[d] for d in result.device_ids},
            delays_s={d: result.delays_s[d] for d in result.device_ids},
            switches={d: result.switches[d] for d in result.device_ids},
            active={d: result.active[d] for d in result.device_ids},
            probabilities={d: result.probabilities[d] for d in result.device_ids},
            resets=result.resets,
        )
        assert_results_identical(result, rebuilt)

    def test_cross_backend_equivalence_via_views(self):
        # Dynamic scenario: rows with inactive stretches and NO_NETWORK.
        # The horizon must contain the join edge at t=401 — scenario
        # validation rejects presence windows outside the horizon.
        scenario = dynamic_join_leave_scenario(policy="exp3", horizon_slots=450)
        event, vectorized = run_both(scenario, 4)
        assert_results_identical(event, vectorized)
        assert np.array_equal(event.choices_2d, vectorized.choices_2d)
        assert np.array_equal(event.probabilities_3d, vectorized.probabilities_3d)

    def test_rows_for_and_row_index(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=0)
        subset = result.device_ids[::2]
        rows = result.rows_for(subset)
        assert [result.device_ids[r] for r in rows] == list(subset)
        assert result.row_index(result.device_ids[-1]) == len(result.device_ids) - 1
        with pytest.raises(KeyError):
            result.rows_for((10_000,))


class TestDroppedAndStridedProbabilities:
    def test_dropping_probabilities_keeps_other_blocks_bit_identical(
        self, tiny_setting1
    ):
        full = run_simulation(tiny_setting1, seed=5)
        slim = run_simulation(tiny_setting1, seed=5, record_probabilities=False)
        assert slim.probabilities_3d is None
        assert np.array_equal(full.choices_2d, slim.choices_2d)
        assert np.array_equal(full.rates_2d, slim.rates_2d)
        assert np.array_equal(full.delays_2d, slim.delays_2d)
        assert np.array_equal(full.switches_2d, slim.switches_2d)
        assert np.array_equal(full.active_2d, slim.active_2d)
        assert full.resets == slim.resets
        with pytest.raises(ValueError, match="not recorded"):
            _ = slim.probabilities
        with pytest.raises(ValueError, match="probability tensor"):
            stability_report(slim)
        assert slim.nbytes < full.nbytes

    def test_without_probabilities_shares_blocks(self, tiny_setting1):
        full = run_simulation(tiny_setting1, seed=5)
        slim = full.without_probabilities()
        assert slim.probabilities_3d is None
        assert slim.choices_2d is full.choices_2d

    def test_strided_probabilities(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=1)
        slots, tensor = result.strided_probabilities(8)
        assert np.array_equal(slots, np.arange(0, result.num_slots, 8))
        assert np.shares_memory(tensor, result.probabilities_3d)
        assert np.array_equal(tensor, result.probabilities_3d[:, ::8])
        with pytest.raises(ValueError, match="stride"):
            result.strided_probabilities(0)


# --------------------------------------------------------------------------
# Reference (seed) implementations of the vectorized metrics/analysis.
# --------------------------------------------------------------------------


def _reference_downloads_mb(result: SimulationResult) -> np.ndarray:
    values = []
    for device_id in result.device_ids:
        rates = result.rates_mbps[device_id]
        delays = result.delays_s[device_id]
        effective = np.clip(result.slot_duration_s - delays, 0.0, None)
        values.append(float(np.sum(rates * effective)) / 8.0)
    return np.asarray(values, dtype=float)


def _reference_allocation_at(result: SimulationResult, slot_index: int) -> dict:
    counts = {network_id: 0 for network_id in result.networks}
    for device_id in result.device_ids:
        if result.active[device_id][slot_index]:
            network_id = int(result.choices[device_id][slot_index])
            if network_id != NO_NETWORK:
                counts[network_id] += 1
    return counts


def _reference_device_stable_slot(probabilities, active, threshold):
    active_indices = np.flatnonzero(active)
    if active_indices.size == 0:
        return None, None
    last_active = active_indices[-1]
    final_column = int(np.argmax(probabilities[last_active]))
    column_probabilities = probabilities[active_indices, final_column]
    above = column_probabilities >= threshold
    if not above[-1]:
        return None, None
    below_indices = np.flatnonzero(~above)
    if below_indices.size == 0:
        first_stable = active_indices[0]
    else:
        position = below_indices[-1] + 1
        if position >= active_indices.size:
            return None, None
        first_stable = active_indices[position]
    return int(first_stable), final_column


def _reference_stability(result: SimulationResult, threshold: float = 0.75):
    """The seed per-device stability loop, returning (stable, slot, alloc)."""
    per_device_slots = []
    allocation = {network_id: 0 for network_id in result.networks}
    order = result.network_order
    for device_id in result.device_ids:
        active = result.active[device_id]
        if not np.any(active):
            continue
        slot_index, column = _reference_device_stable_slot(
            result.probabilities[device_id], active, threshold
        )
        if slot_index is None:
            return False, None, _reference_allocation_at(result, result.num_slots - 1)
        per_device_slots.append(slot_index)
        allocation[order[int(column)]] += 1
    stable_slot = (max(per_device_slots) + 1) if per_device_slots else None
    return True, stable_slot, allocation


def _reference_distance_series(result: SimulationResult) -> np.ndarray:
    series = np.zeros(result.num_slots, dtype=float)
    for slot_index in range(result.num_slots):
        gains = [
            float(result.rates_mbps[d][slot_index])
            for d in result.device_ids
            if result.active[d][slot_index]
        ]
        if gains:
            series[slot_index] = distance_to_nash(result.networks, gains)
    return series


def _reference_distance_from_average(result: SimulationResult) -> np.ndarray:
    aggregate = sum(n.bandwidth_mbps for n in result.networks.values())
    series = np.zeros(result.num_slots, dtype=float)
    for slot_index in range(result.num_slots):
        observed = [
            float(result.rates_mbps[d][slot_index])
            for d in result.device_ids
            if result.active[d][slot_index]
        ]
        if not observed:
            continue
        fair_share = aggregate / len(observed)
        if fair_share <= 0:
            continue
        shortfall = [max(fair_share - g, 0.0) * 100.0 / fair_share for g in observed]
        series[slot_index] = float(np.mean(shortfall))
    return series


def _analysis_fixture_runs():
    converged = run_simulation(
        setting1_scenario(policy="smart_exp3_no_reset", num_devices=8, horizon_slots=400),
        seed=0,
    )
    unstable = run_simulation(
        setting1_scenario(policy="exp3", num_devices=8, horizon_slots=150), seed=0
    )
    dynamic = run_simulation(
        churn_scenario(
            num_devices=10,
            policy="smart_exp3",
            horizon_slots=150,
            churn=PoissonChurn(
                arrival_rate_per_slot=0.2,
                mean_lifetime_slots=80.0,
                initial_fraction=0.4,
            ),
            seed=11,
        ),
        seed=2,
    )
    mixed = run_simulation(
        mixed_policy_scenario({"smart_exp3": 3, "greedy": 2}, horizon_slots=120),
        seed=1,
    )
    return [converged, unstable, dynamic, mixed]


@pytest.fixture(scope="module")
def analysis_runs():
    return _analysis_fixture_runs()


class TestVectorizedAnalysisMatchesReference:
    def test_downloads(self, analysis_runs):
        for result in analysis_runs:
            assert np.array_equal(result.downloads_mb(), _reference_downloads_mb(result))

    def test_allocation_at(self, analysis_runs):
        for result in analysis_runs:
            for slot_index in range(0, result.num_slots, 13):
                assert result.allocation_at(slot_index) == _reference_allocation_at(
                    result, slot_index
                )

    def test_switch_counts(self, analysis_runs):
        for result in analysis_runs:
            expected = [int(np.sum(result.switches[d])) for d in result.device_ids]
            assert result.switch_counts().tolist() == expected
            assert result.total_switches() == sum(expected)

    def test_stability(self, analysis_runs):
        for result in analysis_runs:
            for threshold in (0.5, 0.75, 1.0):
                stable, slot, allocation = _reference_stability(result, threshold)
                report = stability_report(result, threshold)
                assert report.stable == stable, (result.scenario_name, threshold)
                assert report.stable_slot == slot
                assert report.final_allocation == allocation

    def test_distance_to_nash_series(self, analysis_runs):
        for result in analysis_runs:
            assert np.array_equal(
                distance_to_nash_series(result), _reference_distance_series(result)
            )

    def test_distance_from_average_rate_series(self, analysis_runs):
        for result in analysis_runs:
            assert np.allclose(
                distance_from_average_rate_series(result),
                _reference_distance_from_average(result),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_subset_distance_bounded_by_full(self, analysis_runs):
        result = analysis_runs[0]
        full = distance_to_nash_series(result)
        subset = distance_to_nash_series(
            result, report_device_ids=result.device_ids[:2]
        )
        assert np.all(subset <= full + 1e-9)


class TestRunManyReduce:
    def test_reduced_matches_post_hoc_reduction(self, tiny_setting1):
        reducer = SummaryReducer()
        full = run_many(tiny_setting1, runs=4, base_seed=3)
        streamed = run_many(tiny_setting1, runs=4, base_seed=3, reduce=reducer)
        assert isinstance(streamed, RunSummaries)
        assert streamed.rows == reducer.reduce_all(full).rows

    def test_parallel_reduction_matches_serial(self, tiny_setting1):
        serial = run_many(tiny_setting1, runs=4, base_seed=1, reduce="summary")
        parallel = run_many(
            tiny_setting1, runs=4, base_seed=1, reduce="summary", workers=2
        )
        assert serial.rows == parallel.rows
        # Seed order is preserved by the pool map.
        assert [row["seed"] for row in parallel] == [1, 2, 3, 4]

    def test_parallel_full_results_with_chunksize(self, tiny_setting1):
        # Nine solo event-backend runs on two workers go out in pool jobs
        # (chunks) of two runs each.
        serial = run_many(tiny_setting1, runs=9, base_seed=5)
        parallel = run_many(tiny_setting1, runs=9, base_seed=5, workers=2)
        assert [result.seed for result in parallel] == list(range(5, 14))
        for ref, cand in zip(serial, parallel):
            assert_results_identical(ref, cand)

    def test_reducer_controls_probability_recording(self, tiny_setting1):
        # The summary reducer declares needs_probabilities=False, so reduced
        # runs never allocate the tensor — assert the override threads through
        # by forcing it back on.
        summaries = run_many(
            tiny_setting1,
            runs=2,
            reduce="stability",  # needs probabilities: must not raise
        )
        assert len(summaries) == 2
        forced = run_many(
            tiny_setting1,
            runs=2,
            reduce="summary",
            record_probabilities=True,
        )
        assert forced.rows == run_many(tiny_setting1, runs=2, reduce="summary").rows

    def test_validation(self, tiny_setting1):
        with pytest.raises(KeyError, match="unknown reducer"):
            run_many(tiny_setting1, runs=2, reduce="nope")
        with pytest.raises(TypeError, match="reduce"):
            run_many(tiny_setting1, runs=2, reduce=42)


class TestSeriesReducer:
    """Each run's series kept whole equals the series of its full result,
    array for array, on every run path."""

    @pytest.fixture
    def expected(self, tiny_setting1):
        return [distance_to_nash_series(r) for r in run_many(tiny_setting1, 3)]

    @staticmethod
    def assert_same_series(reduced, expected):
        assert len(reduced) == len(expected)
        for got, want in zip(reduced, expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "options",
        [
            {"backend": "vectorized"},
            {"backend": "vectorized", "workers": 2},
            {"backend": "event"},
            {"backend": "sharded", "shards": 2},
        ],
        ids=["stack", "pool", "event", "sharded"],
    )
    def test_equals_the_series_of_full_results(self, tiny_setting1, expected, options):
        reducer = SeriesReducer(distance_to_nash_series)
        reduced = run_many(tiny_setting1, 3, reduce=reducer, **options)
        self.assert_same_series(reduced, expected)

    def test_a_warm_call_loads_every_run(self, tiny_setting1, expected, tmp_path):
        reducer = SeriesReducer(distance_to_nash_series)
        cold = CacheSpec(mode="reuse", store=RunStore(tmp_path))
        run_many(tiny_setting1, 3, backend="vectorized", reduce=reducer, cache=cold)
        store = RunStore(tmp_path)
        warm = run_many(
            tiny_setting1,
            3,
            backend="vectorized",
            reduce=reducer,
            cache=CacheSpec(mode="reuse", store=store),
        )
        assert store.hits == 3 and store.stored == 0
        self.assert_same_series(warm, expected)

    def test_the_series_function_is_part_of_the_cell_key(self, tiny_setting1):
        reducers = [
            SeriesReducer(distance_to_nash_series),
            SeriesReducer(distance_from_average_rate_series),
        ]
        assert "repro.analysis.distance.distance_to_nash_series" in str(
            describe(reducers[0])
        )
        keys = {
            cell_key(
                tiny_setting1,
                base_seed=0,
                run_index=0,
                record_probabilities=False,
                reducer=reducer,
            ).fingerprint
            for reducer in reducers
        }
        assert len(keys) == 2


class TestReducerProperties:
    def test_available_and_resolve(self):
        assert {"summary", "stability", "downloads", "timeseries"} <= set(
            available_reducers()
        )
        assert resolve_reducer(None) is None
        reducer = SummaryReducer()
        assert resolve_reducer(reducer) is reducer
        assert isinstance(resolve_reducer("summary"), SummaryReducer)

    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_reduce_then_merge_equals_merge_then_reduce_rows(
        self, tiny_setting1, split
    ):
        """Row reducers are exactly associative over seed chunks."""
        reducer = SummaryReducer()
        results = run_many(tiny_setting1, runs=4, base_seed=0)
        whole = reducer.reduce_all(results)
        chunk_payloads = [
            reducer.map(result) for result in results
        ]
        merged = chunk_payloads[0]
        for payload in chunk_payloads[1:]:
            merged = reducer.merge(merged, payload)
        assert reducer.finalize(merged).rows == whole.rows
        # And chunked: reduce each chunk fully, then merge the chunk payloads.
        left = results[:split]
        right = results[split:]
        if left and right:
            left_payload = [reducer.row(r) for r in left]
            right_payload = [reducer.row(r) for r in right]
            recombined = reducer.finalize(reducer.merge(left_payload, right_payload))
            assert recombined.rows == whole.rows

    def test_timeseries_merge_is_count_weighted_and_associative(self, tiny_setting1):
        reducer = TimeSeriesReducer(points=10)
        results = run_many(tiny_setting1, runs=3, base_seed=0)
        payloads = [reducer.map(r) for r in results]
        left_first = reducer.merge(reducer.merge(payloads[0], payloads[1]), payloads[2])
        right_first = reducer.merge(payloads[0], reducer.merge(payloads[1], payloads[2]))
        assert left_first["count"] == right_first["count"] == 3
        assert np.allclose(left_first["series"], right_first["series"])
        stacked = np.stack([p["series"] for p in payloads])
        assert np.allclose(left_first["series"], stacked.mean(axis=0))

    def test_stability_reducer_matches_direct_reports(self, tiny_setting1):
        reducer = StabilityReducer()
        results = run_many(tiny_setting1, runs=2, base_seed=0)
        summaries = reducer.reduce_all(results)
        for row, result in zip(summaries, results):
            report = stability_report(result)
            assert row["stable"] == report.stable
            assert row["stable_slot"] == report.stable_slot
            assert row["at_nash"] == report.at_nash_equilibrium

    def test_run_summaries_accessors(self, tiny_setting1):
        summaries = run_many(tiny_setting1, runs=3, reduce="summary")
        values = summaries.values("mean_switches")
        assert values.shape == (3,)
        assert summaries.mean("mean_switches") == pytest.approx(float(np.mean(values)))
        assert summaries.median("median_download_mb") == pytest.approx(
            float(np.median(summaries.values("median_download_mb")))
        )

    def test_summary_rows_match_result_summary(self, tiny_setting1):
        results = run_many(tiny_setting1, runs=2)
        summaries = SummaryReducer().reduce_all(results)
        for row, result in zip(summaries, results):
            for key, value in result.summary().items():
                assert row[key] == pytest.approx(value)
            assert row["jains_index"] == pytest.approx(download_jains_index(result))


class TestVectorizedAggregateHelpers:
    def test_downloads_and_switch_counts_over_runs(self, tiny_setting1):
        results = run_many(tiny_setting1, runs=3)
        downloads = downloads_over_runs(results)
        switches = switch_counts_over_runs(results)
        assert downloads.shape == (3, len(results[0].device_ids))
        assert switches.shape == downloads.shape
        for run_index, result in enumerate(results):
            assert np.array_equal(downloads[run_index], result.downloads_mb())
            assert np.array_equal(switches[run_index], result.switch_counts())
        assert downloads_over_runs([]).shape == (0, 0)
        assert switch_counts_over_runs([]).shape == (0, 0)

    def test_download_jains_index(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=2)
        assert download_jains_index(result) == pytest.approx(
            jains_index(result.downloads_mb())
        )
        subset = result.device_ids[:3]
        assert download_jains_index(result, subset) == pytest.approx(
            jains_index(result.downloads_mb(subset))
        )

    def test_format_run_summaries(self, tiny_setting1):
        summaries = run_many(tiny_setting1, runs=2, reduce="summary")
        text = format_run_summaries(
            summaries, keys=["mean_switches", "median_download_mb"], title="Runs"
        )
        assert "Runs" in text and "mean" in text
        assert "mean_switches" in text and "median_download_mb" in text
        # One row per run + header + separator + aggregate row.
        assert len(text.splitlines()) == 1 + 2 + 2 + 1
        assert "(no data)" in format_run_summaries(RunSummaries(rows=()))
