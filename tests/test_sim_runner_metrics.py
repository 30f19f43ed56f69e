"""Integration-style tests of the simulation runner and the result container."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.reducers import RowsReducer
from repro.sim.metrics import NO_NETWORK
from repro.sim.runner import (
    RunFailure,
    run_many,
    run_many_scenarios,
    run_simulation,
)
from repro.sim.scenario import (
    dynamic_join_leave_scenario,
    mobility_scenario,
    setting1_scenario,
)


class TestRunSimulation:
    def test_result_shapes(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=0)
        assert result.num_slots == 80
        assert len(result.device_ids) == 6
        for device_id in result.device_ids:
            assert result.choices[device_id].shape == (80,)
            assert result.probabilities[device_id].shape == (80, 3)
            assert result.active[device_id].all()

    def test_choices_are_valid_network_ids(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=0)
        valid = set(result.networks) | {NO_NETWORK}
        for device_id in result.device_ids:
            assert set(np.unique(result.choices[device_id])) <= valid

    def test_deterministic_given_seed(self, tiny_setting1):
        a = run_simulation(tiny_setting1, seed=42)
        b = run_simulation(tiny_setting1, seed=42)
        for device_id in a.device_ids:
            assert np.array_equal(a.choices[device_id], b.choices[device_id])
            assert np.allclose(a.rates_mbps[device_id], b.rates_mbps[device_id])

    def test_different_seeds_differ(self, tiny_setting1):
        a = run_simulation(tiny_setting1, seed=1)
        b = run_simulation(tiny_setting1, seed=2)
        assert any(
            not np.array_equal(a.choices[d], b.choices[d]) for d in a.device_ids
        )

    def test_switch_flags_match_choice_changes(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=3)
        for device_id in result.device_ids:
            choices = result.choices[device_id]
            switches = result.switches[device_id]
            assert not switches[0]
            for slot in range(1, result.num_slots):
                expected = choices[slot] != choices[slot - 1]
                assert switches[slot] == expected

    def test_delay_only_charged_on_switch(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=3)
        for device_id in result.device_ids:
            delays = result.delays_s[device_id]
            switches = result.switches[device_id]
            assert np.all(delays[~switches] == 0.0)
            if switches.any():
                assert np.all(delays[switches] > 0.0)

    def test_rates_consistent_with_equal_sharing(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=5)
        for slot_index in range(0, result.num_slots, 7):
            allocation = result.allocation_at(slot_index)
            for device_id in result.device_ids:
                network_id = int(result.choices[device_id][slot_index])
                expected = result.networks[network_id].shared_rate(allocation[network_id])
                assert result.rates_mbps[device_id][slot_index] == pytest.approx(expected)

    def test_download_and_switching_cost_are_positive(self, tiny_setting1):
        result = run_simulation(tiny_setting1, seed=1)
        downloads = result.downloads_mb()
        assert np.all(downloads > 0)
        assert result.switching_cost_mb(result.device_ids[0]) >= 0.0

    def test_summary_keys(self, tiny_setting1):
        summary = run_simulation(tiny_setting1, seed=0).summary()
        assert {"num_devices", "mean_switches", "median_download_mb", "total_download_gb"} <= set(summary)


class TestDynamicRuns:
    def test_transient_devices_inactive_outside_window(self):
        scenario = dynamic_join_leave_scenario(policy="greedy").with_horizon(450)
        result = run_simulation(scenario, seed=0)
        transient = [
            spec.device.device_id
            for spec in scenario.device_specs
            if spec.device.join_slot == 401
        ]
        for device_id in transient:
            assert not result.active[device_id][:400].any()
            assert result.active[device_id][400:450].all()
            assert np.all(result.choices[device_id][:400] == NO_NETWORK)
            assert np.all(result.rates_mbps[device_id][:400] == 0.0)

    def test_mobility_respects_coverage(self):
        scenario = mobility_scenario(policy="smart_exp3").with_horizon(500)
        result = run_simulation(scenario, seed=0)
        # Device 11 is in the study area and can only use networks 1 and 3.
        visible = {1, 3}
        chosen = set(np.unique(result.choices[11])) - {NO_NETWORK}
        assert chosen <= visible

    def test_moving_device_changes_network_set(self):
        scenario = mobility_scenario(policy="smart_exp3").with_horizon(450)
        result = run_simulation(scenario, seed=1)
        # Device 1 moves from the food court (2, 3, 4) to the study area (1, 3) at 401.
        early = set(np.unique(result.choices[1][:400])) - {NO_NETWORK}
        late = set(np.unique(result.choices[1][400:450])) - {NO_NETWORK}
        assert early <= {2, 3, 4}
        assert late <= {1, 3}


class TestMultiRunHelpers:
    def test_run_many_counts_and_seeds(self, tiny_setting1):
        results = run_many(tiny_setting1, runs=3, base_seed=10)
        assert len(results) == 3
        assert [r.seed for r in results] == [10, 11, 12]

    def test_run_many_rejects_zero_runs(self, tiny_setting1):
        with pytest.raises(ValueError):
            run_many(tiny_setting1, runs=0)


class _ExplodingReducer(RowsReducer):
    """Fails on one specific seed; module-level so the pool pickles it."""

    needs_probabilities = False

    def __init__(self, fail_seed: int):
        self.fail_seed = fail_seed

    def row(self, result) -> dict:
        if result.seed == self.fail_seed:
            raise RuntimeError("synthetic reducer failure")
        return {"seed": result.seed}


class TestRunFailure:
    @staticmethod
    def _failure(scenario, workers) -> RunFailure:
        with pytest.raises(RunFailure) as excinfo:
            run_many(
                scenario,
                runs=3,
                base_seed=10,
                workers=workers,
                reduce=_ExplodingReducer(fail_seed=11),
            )
        err = excinfo.value
        assert err.run_index == 1
        assert err.seed_label == 11
        assert err.scenario_name == scenario.name
        assert "seed 11" in str(err)
        assert "RuntimeError" in str(err)
        return err

    def test_pool_failure_names_the_cell(self, tiny_setting1):
        self._failure(tiny_setting1, workers=2)

    def test_serial_failure_names_the_cell(self, tiny_setting1):
        err = self._failure(tiny_setting1, workers=None)
        assert type(err.__cause__) is RuntimeError

    @pytest.mark.parametrize("workers", [None, 2])
    def test_failing_stack_names_its_cell(self, workers):
        # EXP3 rejects gamma=5 only when the engine builds its policies, so
        # the stack that holds "bad" fails as a whole; replayed alone, its
        # first cell raises the RunFailure.
        good = setting1_scenario(policy="exp3", num_devices=4, horizon_slots=20)
        bad = replace(
            good,
            name="bad",
            device_specs=[
                replace(spec, policy_kwargs={"gamma": 5.0})
                for spec in good.device_specs
            ],
        )
        with pytest.raises(RunFailure) as excinfo:
            run_many_scenarios(
                {"good": good, "bad": bad},
                3,
                backend="vectorized",
                workers=workers,
                reduce="summary",
            )
        err = excinfo.value
        assert (err.scenario_name, err.run_index, err.seed_label) == ("bad", 0, 0)

    def test_run_failure_survives_pool_pickling(self):
        err = RunFailure(
            "boom", run_index=3, seed_label=13, scenario_name="tiny"
        )
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == "boom"
        assert clone.run_index == 3
        assert clone.seed_label == 13
        assert clone.scenario_name == "tiny"
