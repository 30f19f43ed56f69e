"""Shard-invariance and equivalence suite for the sharded population engine.

The ``"sharded"`` backend must be bit-exact against the event backend for
*any* shard and worker count: per-device policy streams derive from the run
seed and the global device order only, the per-slot all-reduce exchanges
exact integer occupancy counts, and stochastic switching delays replay the
same global ascending-device-order draw on every shard's environment-RNG
replica.  These tests pin that
contract across stationary, churn and mobility scenarios (with and without
probability recording), the multiprocess shared-memory path, the float32
recorder option, the in-shard reducer protocol, and the ``shards=``
threading through ``run_many``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.reducers import (
    DownloadReducer,
    StabilityReducer,
    SummaryReducer,
    TimeSeriesReducer,
    switch_fraction_series,
)
from repro.experiments.common import ExperimentConfig
from repro.game.gain import NoisyShareModel
from repro.game.network import NetworkType
from repro.sim.backends import available_backends, get_backend
from repro.sim.delay import ConstantDelayModel, EmpiricalDelayModel
from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import (
    Scenario,
    mixed_policy_scenario,
    mobility_scenario,
    per_slot_churn_scenario,
    setting1_scenario,
)
from repro.sim.sharded import (
    HomogeneousPopulation,
    ShardPlan,
    ShardedSlotExecutor,
    shard_boundaries,
)
from tests.test_backends import (
    assert_physical_invariants,
    assert_results_identical,
    dynamic_scenarios,
    random_churn_scenario,
)


def run_sharded(scenario, seed, shards, workers=1, **kwargs):
    assert ShardedSlotExecutor.supports_scenario(scenario)
    executor = ShardedSlotExecutor(shards=shards, workers=workers, **kwargs)
    return executor.execute(scenario, seed)


class TestRegistryAndConfig:
    def test_sharded_backend_registered(self):
        assert "sharded" in available_backends()
        assert get_backend("sharded").name == "sharded"

    def test_executor_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedSlotExecutor(shards=0)
        with pytest.raises(ValueError, match="workers"):
            ShardedSlotExecutor(workers=0)
        with pytest.raises(ValueError, match="window_slots"):
            ShardedSlotExecutor(window_slots=0)

    def test_experiment_config_shards(self):
        config = ExperimentConfig(backend="sharded", shards=4)
        assert config.shards == 4
        with pytest.raises(ValueError, match="shards"):
            ExperimentConfig(backend="sharded", shards=0)
        with pytest.raises(ValueError, match="backend='sharded'"):
            ExperimentConfig(backend="vectorized", shards=2)

    def test_run_many_rejects_shards_on_other_backends(self):
        scenario = setting1_scenario(num_devices=2, horizon_slots=20)
        with pytest.raises(ValueError, match="does not support shards"):
            run_many(scenario, runs=1, backend="vectorized", shards=2)

    def test_shard_boundaries_balanced(self):
        assert shard_boundaries(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_boundaries(2, 8) == [(0, 1), (1, 2)]  # clamped
        assert shard_boundaries(5, 1) == [(0, 5)]

    def test_recorder_dtype_validated(self):
        from repro.sim.backends import SlotRecorder

        with pytest.raises(ValueError, match="dtype"):
            SlotRecorder((0,), (0,), 10, dtype="float16")


class TestShardInvariance:
    """shards=1 vs shards=K vs the event backend, bit for bit."""

    @pytest.mark.parametrize(
        "policy",
        ("exp3", "smart_exp3", "greedy", "full_information", "centralized", "fixed_random"),
    )
    def test_stationary_all_policies(self, policy):
        scenario = setting1_scenario(
            policy=policy, num_devices=9, horizon_slots=100
        )
        reference = run_simulation(scenario, seed=3, backend="event")
        for shards in (1, 4):
            assert_results_identical(
                reference, run_sharded(scenario, 3, shards)
            )

    def test_churn_scenarios(self):
        for case in (0, 3, 5):
            scenario = random_churn_scenario(case)
            reference = run_simulation(scenario, seed=case, backend="event")
            for shards in (1, 4):
                assert_results_identical(
                    reference, run_sharded(scenario, case, shards)
                )

    def test_per_slot_churn(self):
        scenario = per_slot_churn_scenario(num_devices=12, policy="exp3")
        reference = run_simulation(scenario, seed=1, backend="event")
        assert_results_identical(reference, run_sharded(scenario, 1, 4))

    def test_mobility(self):
        scenario = mobility_scenario(policy="smart_exp3", horizon_slots=450)
        reference = run_simulation(scenario, seed=4, backend="event")
        for shards in (1, 3):
            assert_results_identical(
                reference, run_sharded(scenario, 4, shards)
            )

    def test_mixed_policy_population(self):
        scenario = mixed_policy_scenario(
            {"smart_exp3": 3, "greedy": 2, "fixed_random": 2, "full_information": 2},
            horizon_slots=80,
        )
        reference = run_simulation(scenario, seed=1, backend="event")
        assert_results_identical(reference, run_sharded(scenario, 1, 3))

    def test_without_probabilities(self):
        scenario = random_churn_scenario(2)
        reference = run_simulation(
            scenario, seed=2, backend="event", record_probabilities=False
        )
        assert ShardedSlotExecutor.supports_scenario(scenario)
        for shards in (1, 4):
            candidate = ShardedSlotExecutor(shards=shards).execute(
                scenario, 2, record_probabilities=False
            )
            assert candidate.probabilities_3d is None
            for block in (
                "choices_2d",
                "rates_2d",
                "delays_2d",
                "switches_2d",
                "active_2d",
            ):
                assert np.array_equal(
                    getattr(reference, block), getattr(candidate, block)
                ), (shards, block)
            assert candidate.resets == reference.resets

    def test_stream_free_delay_model(self):
        # Constant delays never touch the environment RNG, so shards sample
        # locally with no switcher exchange, in one process or in worker
        # processes; results must still match.
        base = setting1_scenario(policy="exp3", num_devices=8, horizon_slots=80)
        scenario = Scenario(
            name="constant_delay",
            networks=base.networks,
            device_specs=base.device_specs,
            coverage=base.coverage,
            delay_model=ConstantDelayModel(),
            horizon_slots=80,
        )
        assert scenario.delay_model.stream_free
        reference = run_simulation(scenario, seed=6, backend="event")
        for workers in (1, 2):
            assert_results_identical(
                reference, run_sharded(scenario, 6, 3, workers=workers)
            )

    def test_coupled_delay_model_draws_globally(self):
        # The default empirical model is stochastic: shard workers must
        # replay the global ascending-device-order draw.
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=8, horizon_slots=80
        )
        assert isinstance(scenario.delay_model, EmpiricalDelayModel)
        assert not scenario.delay_model.stream_free
        reference = run_simulation(scenario, seed=9, backend="event")
        assert_results_identical(reference, run_sharded(scenario, 9, 4))


class TestGeneratedScenarios:
    """Generated dynamic scenarios (churn, mobility, outages, mixed policies,
    drawn gain models) on 1-4 shards against the event oracle; physics that
    cannot be split runs on the one-shard fallback.  Every run also obeys
    the physical invariants (:func:`assert_physical_invariants`)."""

    @settings(
        deadline=None,
        derandomize=True,
        max_examples=200,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        scenario=dynamic_scenarios(),
        shards=st.integers(1, 4),
        record=st.booleans(),
        dtype=st.sampled_from(("float64", "float32")),
        seed=st.integers(0, 1000),
    )
    def test_matches_event(self, scenario, shards, record, dtype, seed):
        event = run_simulation(
            scenario, seed=seed, backend="event", record_probabilities=record
        )
        sharded = ShardedSlotExecutor(
            shards=min(shards, scenario.num_devices), dtype=dtype
        ).execute(scenario, seed, record_probabilities=record)
        if dtype == "float64":
            assert_results_identical(event, sharded)
            assert_physical_invariants(sharded, scenario)
            return
        assert_physical_invariants(event, scenario)
        # float32 storage: the dynamics are identical, and every float
        # block is the event run's value rounded to float32.
        assert sharded.device_ids == event.device_ids
        assert sharded.resets == event.resets
        for name in ("choices_2d", "switches_2d", "active_2d"):
            assert np.array_equal(getattr(sharded, name), getattr(event, name))
        blocks = ["rates_2d", "delays_2d"] + (["probabilities_3d"] if record else [])
        for name in blocks:
            half = getattr(sharded, name)
            assert half.dtype == np.float32
            assert np.array_equal(half, getattr(event, name).astype(np.float32))
        assert (sharded.probabilities_3d is None) == (not record)


class TestMultiprocessPath:
    def test_workers_match_serial(self):
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=9, horizon_slots=60
        )
        reference = run_sharded(scenario, 3, shards=4, workers=1)
        parallel = run_sharded(scenario, 3, shards=4, workers=2)
        assert_results_identical(reference, parallel)

    def test_workers_match_serial_under_churn(self):
        scenario = per_slot_churn_scenario(num_devices=10, policy="exp3")
        reference = run_simulation(scenario, seed=1, backend="vectorized")
        parallel = run_sharded(scenario, 1, shards=4, workers=2)
        assert_results_identical(reference, parallel)

    def test_exchanged_switchers_match_event(self):
        # Empirical delays under mobility: the workers exchange their
        # switchers' cells and each draws the whole slot on its replica of
        # the environment generator.  Some slot's switchers span both
        # workers (shards 0-1 and shard 2) and both network types.
        scenario = mobility_scenario(policy="exp3", horizon_slots=450)
        assert isinstance(scenario.delay_model, EmpiricalDelayModel)
        reference = run_simulation(scenario, seed=4, backend="event")
        split = ShardPlan.from_scenario(scenario, 3).specs[2].lo
        cellular = [
            network_id
            for network_id, network in reference.networks.items()
            if network.network_type is NetworkType.CELLULAR
        ]
        switches = reference.switches_2d
        onto_cellular = switches & np.isin(reference.choices_2d, cellular)
        assert (
            switches[:split].any(axis=0)
            & switches[split:].any(axis=0)
            & onto_cellular.any(axis=0)
            & (switches & ~onto_cellular).any(axis=0)
        ).any()
        assert_results_identical(
            reference, run_sharded(scenario, 4, shards=3, workers=2)
        )


class TestDtypeOption:
    def test_float32_precision_only(self):
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=6, horizon_slots=80
        )
        full = run_sharded(scenario, 5, shards=3)
        half = run_sharded(scenario, 5, shards=3, dtype="float32")
        assert half.rates_2d.dtype == np.float32
        assert half.delays_2d.dtype == np.float32
        assert half.probabilities_3d.dtype == np.float32
        # Dynamics are dtype-independent: integer/boolean blocks identical,
        # float blocks equal up to storage rounding.
        assert np.array_equal(full.choices_2d, half.choices_2d)
        assert np.array_equal(full.switches_2d, half.switches_2d)
        assert np.array_equal(full.active_2d, half.active_2d)
        assert full.resets == half.resets
        assert np.allclose(full.rates_2d, half.rates_2d, rtol=1e-6)
        assert np.allclose(full.delays_2d, half.delays_2d, rtol=1e-6, atol=1e-6)

    def test_float64_default_pinned(self):
        scenario = setting1_scenario(policy="exp3", num_devices=4, horizon_slots=40)
        result = run_sharded(scenario, 0, shards=2)
        assert result.rates_2d.dtype == np.float64
        assert result.probabilities_3d.dtype == np.float64


class TestPhysicsSupport:
    def _noisy_scenario(self):
        base = setting1_scenario(policy="greedy", num_devices=5, horizon_slots=40)
        return Scenario(
            name="noisy",
            networks=base.networks,
            device_specs=base.device_specs,
            coverage=base.coverage,
            gain_model=NoisyShareModel(rate_noise_std=0.2),
            horizon_slots=40,
        )

    def test_fallback_matches_vectorized(self):
        scenario = self._noisy_scenario()
        assert not ShardedSlotExecutor.supports_scenario(scenario)
        reference = run_simulation(scenario, seed=1, backend="event")
        candidate = ShardedSlotExecutor(shards=2).execute(scenario, 1)
        assert_results_identical(reference, candidate)


def assert_rows_close(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert set(want) == set(got)
        for key in want:
            assert np.allclose(float(want[key]), float(got[key]), rtol=1e-9), (
                key,
                want[key],
                got[key],
            )


class TestInShardReduction:
    @pytest.mark.parametrize(
        "reducer_factory",
        (
            SummaryReducer,
            DownloadReducer,
            lambda: DownloadReducer(device_ids=(1, 3, 7)),
            TimeSeriesReducer,
            lambda: TimeSeriesReducer(series_fn=switch_fraction_series, points=20),
        ),
    )
    def test_shard_payload_matches_map(self, reducer_factory):
        scenario = per_slot_churn_scenario(num_devices=10, policy="exp3")
        reducer = reducer_factory()
        assert reducer.shard_capable()
        full = get_backend("vectorized").execute(
            scenario, 4, record_probabilities=False
        )
        expected = reducer.map(full)
        assert ShardedSlotExecutor.supports_scenario(scenario)
        actual = ShardedSlotExecutor(shards=3, window_slots=7).map_reduced(
            scenario, 4, reducer
        )
        if isinstance(expected, list):
            assert_rows_close(expected, actual)
        else:
            assert expected["count"] == actual["count"]
            assert np.allclose(expected["series"], actual["series"])

    def test_uncapable_reducer_falls_back_to_gather(self):
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=6, horizon_slots=60
        )
        reducer = StabilityReducer()
        assert not reducer.shard_capable()
        expected = reducer.map(
            get_backend("vectorized").execute(scenario, 2)
        )
        assert ShardedSlotExecutor.supports_scenario(scenario)
        actual = ShardedSlotExecutor(shards=3).map_reduced(scenario, 2, reducer)
        assert expected == actual

    def test_run_many_sharded_reduce_matches_vectorized(self):
        scenario = setting1_scenario(policy="exp3", num_devices=8, horizon_slots=60)
        sharded = run_many(
            scenario, runs=3, base_seed=7, backend="sharded", shards=3,
            reduce="summary",
        )
        reference = run_many(
            scenario, runs=3, base_seed=7, backend="vectorized", reduce="summary"
        )
        assert_rows_close(list(reference.rows), list(sharded.rows))

    def test_population_matches_explicit_scenario(self):
        population = HomogeneousPopulation(
            num_devices=40, policy="exp3", horizon_slots=50, name="pop"
        )
        reducer = SummaryReducer()
        payload = ShardedSlotExecutor(
            shards=4, window_slots=16
        ).execute_population(population, 3, reducer)
        explicit = population.build_shard(0, population.num_devices)
        expected = reducer.map(
            get_backend("vectorized").execute(
                explicit, 3, record_probabilities=False
            )
        )
        assert_rows_close(expected, payload)

    def test_population_requires_shard_capable_reducer(self):
        population = HomogeneousPopulation(num_devices=4, horizon_slots=20)
        with pytest.raises(ValueError, match="shard-capable"):
            ShardedSlotExecutor(shards=2).execute_population(
                population, 0, StabilityReducer()
            )


class TestRunManySeeding:
    def test_seed_labels_preserved(self, tiny_setting1):
        results = run_many(tiny_setting1, runs=3, base_seed=10)
        assert [r.seed for r in results] == [10, 11, 12]

    def test_spawned_streams_do_not_alias(self, tiny_setting1):
        # Historically run 1 of base_seed=0 equalled run 0 of base_seed=1.
        overlapping = run_many(tiny_setting1, runs=2, base_seed=0)[1]
        shifted = run_many(tiny_setting1, runs=1, base_seed=1)[0]
        assert overlapping.seed == shifted.seed == 1
        assert not np.array_equal(
            overlapping.choices_2d, shifted.choices_2d
        )


class TestShardPlan:
    def test_contiguous_rows_and_global_ranks(self):
        scenario = mixed_policy_scenario(
            {"centralized": 5, "greedy": 3}, horizon_slots=20
        )
        plan = ShardPlan.from_scenario(scenario, 3)
        assert plan.shards == 3
        rows = [
            spec.device.device_id
            for shard in plan.specs
            for spec in shard.scenario.device_specs
        ]
        assert rows == sorted(d.device.device_id for d in scenario.device_specs)
        # Centralized ranks must stay population-wide across shards.
        ranks = [
            rank
            for shard in plan.specs
            for spec, rank in zip(shard.scenario.device_specs, shard.policy_ranks)
            if spec.policy == "centralized"
        ]
        assert ranks == [(i, 5) for i in range(5)]


class TestMegascaleDriver:
    def test_quick_run_structure(self):
        from repro.experiments import megascale

        payload = megascale.run(
            num_devices=300,
            horizon_slots=40,
            shards=3,
            workers=1,
            heartbeat_seconds=None,
        )
        assert payload["population"]["num_devices"] == 300
        assert payload["execution"]["shards"] == 3
        assert payload["summary"]["num_devices"] == 300.0
        assert payload["perf"]["device_slots_per_second"] > 0
