"""The kernels' per-slot churn path: EXP3's γ table, draw windows, row removal.

Per-slot churn ends a draw window and edits kernel membership on every
slot, and makes nearly every EXP3 row's round count distinct.  EXP3's γ
comes from a per-kernel lookup table, windows are filled in place, and row
removal deletes only the removed entries; each must leave the results
bit-exact with the scalar policies.  The churn tests drive membership edits
at a kernel size equal to the γ table's length, where the table could be
mistaken for row state.
"""

from __future__ import annotations

import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms.exp3 import EXP3Policy, decayed_gamma
from repro.algorithms.greedy import GreedyPolicy
from repro.algorithms.kernels import EXP3Kernel, GreedyKernel
from repro.algorithms.kernels.base import _TABLE_START
from repro.sim.mobility import NetworkDynamics
from repro.sim.runner import run_simulation
from repro.sim.scenario import (
    DeviceSpec,
    TraceChurn,
    churn_scenario,
    per_slot_churn_scenario,
    per_slot_churn_windows,
)

from tests.conftest import make_context
from tests.test_backends import assert_results_identical


def make_kernel(kernel_cls, policies, runtimes=None):
    recorder = SimpleNamespace(network_col={0: 0, 1: 1, 2: 2}, probabilities=None)
    runtimes = runtimes or [None] * len(policies)
    return kernel_cls(
        [(row, rt, p) for row, (rt, p) in enumerate(zip(runtimes, policies))],
        recorder,
    )


def exp3_kernel(gammas=(None, None)) -> EXP3Kernel:
    policies = [
        EXP3Policy(make_context(seed=seed), gamma=gamma)
        for seed, gamma in enumerate(gammas)
    ]
    return make_kernel(EXP3Kernel, policies)


def scalar_gammas(count: int, gamma=None) -> list[float]:
    """``EXP3Policy._gamma`` in rounds ``0 .. count - 1``."""
    policy = EXP3Policy(make_context(), gamma=gamma)
    values = []
    for round_index in range(count):
        policy._round = round_index
        values.append(policy._gamma())
    return values


def assert_table_intact(kernel: EXP3Kernel) -> None:
    table = kernel._gamma_table
    assert table.tolist() == scalar_gammas(table.size)


class TestGammaTable:
    def test_table_matches_scalar_through_growth(self):
        kernel = exp3_kernel()
        expected = scalar_gammas(5001)
        sizes = set()
        for round_index in range(5001):
            kernel.rounds = np.array([round_index, round_index // 2])
            got = kernel._gammas()
            assert got.tolist() == [expected[round_index], expected[round_index // 2]]
            sizes.add(kernel._gamma_table.size)
        assert min(sizes) == _TABLE_START
        assert max(sizes) > 5000
        assert_table_intact(kernel)

    def test_table_grows_to_a_far_round_at_once(self):
        kernel = exp3_kernel()
        kernel.rounds = np.array([5000, 3])
        assert kernel._gammas().tolist() == [
            decayed_gamma(5000),
            decayed_gamma(3),
        ]
        assert kernel._gamma_table.size == 5001
        assert_table_intact(kernel)

    def test_fixed_and_decaying_rows_in_one_kernel(self):
        gammas = (None, 0.25, None, 1.0, 0.5)
        kernel = exp3_kernel(gammas)
        for round_index in (0, 1, 2, 63, 64, 65, 700):
            kernel.rounds = np.full(len(gammas), round_index)
            expected = [
                scalar_gammas(round_index + 1, gamma)[round_index]
                for gamma in gammas
            ]
            assert kernel._gammas().tolist() == expected

    def test_mixed_gamma_churn_is_bit_exact(self, monkeypatch):
        # Fixed-γ and decaying rows share one group key, so under churn they
        # join, leave and move between the same kernels.
        scenario = churn_scenario(
            num_devices=30,
            policy="exp3",
            horizon_slots=120,
            churn=TraceChurn(tuple(per_slot_churn_windows(30)[0])),
            areas={"hall": (0, 1, 2), "north": (0, 2)},
            mobility_fraction=0.4,
            mean_dwell_slots=15.0,
            seed=2,
        )
        for index, spec in enumerate(scenario.device_specs):
            if index % 3 == 1:
                spec.policy_kwargs = {"gamma": 0.1 + 0.02 * index}
        mixed = []
        end_slot = EXP3Kernel.end_slot

        def recording_end_slot(self, *args):
            fixed = self.fixed_gamma > 0
            mixed.append(bool(fixed.any() and not fixed.all()))
            return end_slot(self, *args)

        monkeypatch.setattr(EXP3Kernel, "end_slot", recording_end_slot)
        scalar = run_simulation(scenario, seed=5, backend="vectorized-nokernel")
        kernel = run_simulation(scenario, seed=5, backend="vectorized")
        assert_results_identical(scalar, kernel)
        assert any(mixed)

    def test_churn_at_table_length_is_bit_exact(self, monkeypatch):
        # Fifty persistent devices and fifty joining one per slot: the
        # kernel passes 64 rows while its γ table holds 64 entries.
        scenario = per_slot_churn_scenario(num_devices=100, policy="exp3")
        edits = []

        def checked(edit):
            def wrapper(self, argument):
                before = (self.size, self._gamma_table.size)
                table = self._gamma_table
                edit(self, argument)
                edits.append(before)
                assert self._gamma_table is table
                assert_table_intact(self)

            return wrapper

        for name in ("remove_rows", "absorb"):
            monkeypatch.setattr(EXP3Kernel, name, checked(getattr(EXP3Kernel, name)))
        scalar = run_simulation(scenario, seed=4, backend="vectorized-nokernel")
        kernel = run_simulation(scenario, seed=4, backend="vectorized")
        assert_results_identical(scalar, kernel)
        assert (_TABLE_START, _TABLE_START) in edits


class TestDrawWindows:
    @pytest.mark.parametrize("n_slots", (1, 2, 7))
    def test_window_rows_match_generator_stream(self, n_slots):
        kernel = exp3_kernel((None, 0.3, None))
        twins = [copy.deepcopy(rng) for rng in kernel.rngs]
        kernel.prepare_window(n_slots)
        draws = kernel._window_draws.copy()
        assert draws.shape == (3, n_slots)
        for row, twin, rng in zip(draws, twins, kernel.rngs):
            assert row.tolist() == twin.random(n_slots).tolist()
            assert rng.bit_generator.state == twin.bit_generator.state
        for column in range(n_slots):
            assert not kernel.window_exhausted
            assert kernel._take_draws().tolist() == draws[:, column].tolist()
        assert kernel.window_exhausted

    def test_zero_row_window_draws_nothing(self):
        kernel = exp3_kernel((None,))
        policy = kernel.policies[0]
        kernel.remove_rows([0])
        state = policy.rng.bit_generator.state
        kernel.prepare_window(4)
        assert kernel._window_draws.shape == (0, 4)
        assert policy.rng.bit_generator.state == state
        for _ in range(4):
            assert kernel._take_draws().shape == (0,)
        assert kernel.window_exhausted


class TestRowRemoval:
    def test_non_contiguous_removal_keeps_rows_aligned(self):
        size = 7
        removed = [5, 0, 2, 2]
        keep = [1, 3, 4, 6]
        greedy_policies = [GreedyPolicy(make_context(seed=s)) for s in range(size)]
        for j, policy in enumerate(greedy_policies):
            policy._to_explore = policy._to_explore[j % 3 :]
        exp3_policies = [EXP3Policy(make_context(seed=s)) for s in range(size)]
        for j, policy in enumerate(exp3_policies):
            policy.weight_values[:] = [j + 1.0, 2.0 * j + 0.5, 0.25]
            policy._round = 10 * j
        greedy = make_kernel(
            GreedyKernel, greedy_policies, [("greedy", j) for j in range(size)]
        )
        exp3 = make_kernel(
            EXP3Kernel, exp3_policies, [("exp3", j) for j in range(size)]
        )
        explore_lists = list(greedy.to_explore)

        for kernel in (greedy, exp3):
            policies, runtimes = list(kernel.policies), list(kernel.runtimes)
            kernel.remove_rows(removed)
            assert kernel.size == len(keep)
            assert kernel.rows.tolist() == keep
            assert kernel.policies == [policies[j] for j in keep]
            assert kernel.runtimes == [runtimes[j] for j in keep]
            assert all(
                rng is policy.rng for rng, policy in zip(kernel.rngs, kernel.policies)
            )
        assert all(
            mine is explore_lists[j] for mine, j in zip(greedy.to_explore, keep)
        )
        assert greedy._exploring == [
            i for i, queue in enumerate(greedy.to_explore) if queue
        ]
        for i, policy in enumerate(exp3.policies):
            assert exp3.weights[i].tolist() == policy.weight_values.tolist()
            assert int(exp3.rounds[i]) == policy._round

    def test_greedy_and_exp3_churn_is_bit_exact(self, monkeypatch):
        # Outage edges and area moves detach several rows of one kernel at
        # once, so removals hit non-contiguous local rows of both kernels.
        windows, horizon = per_slot_churn_windows(60)
        scenario = churn_scenario(
            num_devices=60,
            policy="exp3",
            horizon_slots=horizon,
            churn=TraceChurn(tuple(windows)),
            areas={"hall": (0, 1, 2), "north": (0, 2), "south": (1, 2)},
            mobility_fraction=0.3,
            mean_dwell_slots=10.0,
            dynamics=NetworkDynamics(
                flapping_networks=(0,), mean_up_slots=15.0, mean_outage_slots=4.0
            ),
            seed=6,
        )
        scenario = dataclasses.replace(
            scenario,
            device_specs=[
                DeviceSpec(spec.device, "greedy") if index % 2 else spec
                for index, spec in enumerate(scenario.device_specs)
            ],
        )
        gapped = set()
        remove_rows = {cls: cls.remove_rows for cls in (EXP3Kernel, GreedyKernel)}

        def spy(cls):
            def wrapper(self, local_indices):
                local = sorted(set(local_indices))
                if local[-1] - local[0] >= len(local):
                    gapped.add(cls)
                return remove_rows[cls](self, local_indices)

            return wrapper

        for cls in remove_rows:
            monkeypatch.setattr(cls, "remove_rows", spy(cls))
        scalar = run_simulation(scenario, seed=3, backend="vectorized-nokernel")
        kernel = run_simulation(scenario, seed=3, backend="vectorized")
        assert_results_identical(scalar, kernel)
        assert gapped == {EXP3Kernel, GreedyKernel}
