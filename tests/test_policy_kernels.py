"""Cross-kernel equivalence suite: scalar policies vs. batched kernels.

The batched policy kernels (:mod:`repro.algorithms.kernels`) must honour the
RNG-equivalence contract stated in the package docstring: every kernel
produces results bit-for-bit identical to the per-device scalar path for
any scenario and seed, across static, dynamic (join/leave) and mobility
scenarios.

The purest comparison runs one backend orchestration twice — the
``vectorized`` backend with kernels and
``VectorizedSlotExecutor(use_kernels=False)``, which forces every policy
onto the scalar fallback — so any difference is attributable to the kernel
layer alone.  The suite also pins the two
replication primitives the contract relies on (single-uniform CDF inversion
vs. ``Generator.choice`` and sequential vs. pairwise summation) and the
stream-stability of the batched switching-delay sampler.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.algorithms.block_exp3 import BlockEXP3Policy
from repro.algorithms.exp3 import EXP3Policy
from repro.algorithms.fixed_random import FixedRandomPolicy
from repro.algorithms.kernels import (
    EXP3Kernel,
    SmartEXP3Kernel,
    kernel_for_policy,
    register_policy_kernel,
    sample_rows,
    sequential_row_sum,
)
from repro.game.network import Network, NetworkType
from repro.sim.backends import VectorizedSlotExecutor
from repro.sim.delay import DelayModel, EmpiricalDelayModel
from repro.sim.environment import WirelessEnvironment
from repro.sim.runner import run_simulation
from repro.sim.scenario import (
    dynamic_join_leave_scenario,
    mobility_scenario,
    setting1_scenario,
    setting2_scenario,
)

from tests.test_backends import assert_results_identical

#: Every registry policy with a built-in kernel (all declared bit-exact).
KERNEL_POLICIES = (
    "exp3",
    "block_exp3",
    "hybrid_block_exp3",
    "smart_exp3_no_reset",
    "smart_exp3",
    "greedy",
    "full_information",
)


def run_scalar_and_kernel(scenario, seed):
    return (
        VectorizedSlotExecutor(use_kernels=False).execute(scenario, seed),
        run_simulation(scenario, seed=seed, backend="vectorized"),
    )


class TestKernelRegistry:
    def test_builtin_resolution(self):
        from tests.conftest import make_context

        assert kernel_for_policy(EXP3Policy(make_context())) is EXP3Kernel
        # Table-III variants resolve through the MRO to the Smart EXP3 kernel.
        assert kernel_for_policy(BlockEXP3Policy(make_context())) is SmartEXP3Kernel
        assert kernel_for_policy(FixedRandomPolicy(make_context())) is None

    def test_overriding_subclass_falls_back(self):
        from tests.conftest import make_context

        class TweakedEXP3(EXP3Policy):
            def begin_slot(self, slot: int) -> int:
                return super().begin_slot(slot)

        assert kernel_for_policy(TweakedEXP3(make_context())) is None

    def test_internal_helper_override_falls_back(self):
        # Even a private helper override invalidates the ancestor's kernel:
        # the batch layer replicates those helpers and would silently ignore
        # the subclass behaviour otherwise.
        from tests.conftest import make_context

        class SlowGammaEXP3(EXP3Policy):
            def _gamma(self) -> float:
                return min(1.0, super()._gamma() * 0.5)

        assert kernel_for_policy(SlowGammaEXP3(make_context())) is None

    def test_init_only_subclass_keeps_kernel(self):
        from tests.conftest import make_context

        class PinnedGammaEXP3(EXP3Policy):
            def __init__(self, context):
                super().__init__(context, gamma=0.2)

        assert kernel_for_policy(PinnedGammaEXP3(make_context())) is EXP3Kernel

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy_kernel(EXP3Policy, EXP3Kernel)

    def test_group_key_separates_configs(self):
        # The Table III variants differ only in their mechanism flags, which
        # are row state: they share one key.  Any other config difference
        # (here β) separates the groups.
        from repro.core.config import SmartEXP3Config
        from repro.core.smart_exp3 import SmartEXP3Policy
        from tests.conftest import make_context

        def key(config, seed):
            return SmartEXP3Kernel.group_key(
                SmartEXP3Policy(make_context(seed=seed), config)
            )

        full = SmartEXP3Config.full()
        family = (
            full,
            SmartEXP3Config.without_reset(),
            SmartEXP3Config.hybrid_block_exp3(),
            SmartEXP3Config.block_exp3(),
        )
        assert len({key(config, seed) for seed, config in enumerate(family)}) == 1
        assert key(full, 1) != key(full.replace(beta=0.2), 2)


class TestReplicationPrimitives:
    def test_sample_rows_matches_generator_choice(self):
        for seed in range(40):
            k = 1 + seed % 6
            weights = np.random.default_rng(seed + 500).random((5, k)) + 1e-3
            scalar_rngs = [np.random.default_rng(1000 + seed + j) for j in range(5)]
            kernel_rngs = [np.random.default_rng(1000 + seed + j) for j in range(5)]
            expected = []
            for row, rng in zip(weights, scalar_rngs):
                probs = row / row.sum()
                expected.append(int(rng.choice(np.arange(k), p=probs)))
            got = sample_rows(weights, kernel_rngs)
            assert list(got) == expected
            for scalar_rng, kernel_rng in zip(scalar_rngs, kernel_rngs):
                assert (
                    scalar_rng.bit_generator.state == kernel_rng.bit_generator.state
                )

    def test_sequential_row_sum_matches_python_sum(self):
        rng = np.random.default_rng(3)
        # Wide rows: np.sum switches to pairwise summation here, Python's
        # sum() does not — the helper must side with Python.
        matrix = rng.random((4, 23)) * 1e3
        expected = [sum(row.tolist()) for row in matrix]
        got = sequential_row_sum(matrix)
        assert got.tolist() == expected

    def test_batched_switching_delays_are_stream_stable(self):
        model = EmpiricalDelayModel()
        networks = [
            Network(
                network_id=i,
                bandwidth_mbps=5.0,
                network_type=(
                    NetworkType.CELLULAR if i % 3 == 0 else NetworkType.WIFI
                ),
            )
            for i in range(40)
        ]
        wifi, cellular = (
            Network(network_id=i, bandwidth_mbps=5.0, network_type=kind)
            for i, kind in enumerate((NetworkType.WIFI, NetworkType.CELLULAR))
        )
        batches = [networks] * 10 + [
            [],
            [wifi],
            [cellular],
            [wifi] * 300,
            [cellular] * 300,
            [(wifi, cellular)[i % 2] for i in range(300)],
            [(cellular, wifi)[i % 2] for i in range(299)],
        ]
        # Random type sequences from long same-type runs to near alternation.
        shapes = np.random.default_rng(12)
        for length in shapes.integers(0, 301, size=10):
            flips = shapes.random(length) < shapes.random()
            kinds = np.cumsum(flips) % 2
            batches.append([(wifi, cellular)[kind] for kind in kinds])
        for seed, batch in enumerate(batches):
            seq_rng = np.random.default_rng(seed)
            batch_rng = np.random.default_rng(seed)
            sequential = [model.sample(n, seq_rng) for n in batch]
            batched = model.sample_many(batch, batch_rng)
            assert sequential == batched
            assert seq_rng.bit_generator.state == batch_rng.bit_generator.state

    def test_switching_delays_clamp_like_scalar(self):
        # A stochastic model whose raw delays need the clamp: signed zeros,
        # negatives and values past the slot.  The batch must match the
        # per-device clamp byte for byte (a plain np.maximum turns -0.0
        # into 0.0).
        class UnclampedDelayModel(DelayModel):
            def sample(self, network, rng):
                u = rng.random()
                if u < 0.2:
                    return -0.0
                if u < 0.4:
                    return -10.0 * u
                if u < 0.6:
                    return 15.0 + 10.0 * u
                if u < 0.7:
                    return 15.0
                return 14.0 * u

        scenario = dataclasses.replace(
            setting1_scenario(num_devices=3, horizon_slots=10),
            delay_model=UnclampedDelayModel(),
        )
        assert scenario.slot_duration_s == 15.0
        network_ids = np.random.default_rng(0).integers(0, 3, size=200).tolist()
        for seed in range(5):
            single = WirelessEnvironment(scenario, np.random.default_rng(seed))
            batch = WirelessEnvironment(scenario, np.random.default_rng(seed))
            expected = [single.switching_delay(n) for n in network_ids]
            got = batch.switching_delays(network_ids)
            assert all(type(delay) is float for delay in got)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
            assert single.rng.bit_generator.state == batch.rng.bit_generator.state
            assert {-0.0, 15.0} <= set(expected)
            assert any(math.copysign(1.0, d) < 0 for d in expected)


class TestBitExactKernels:
    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_static_setting1(self, policy):
        scenario = setting1_scenario(policy=policy, num_devices=9, horizon_slots=150)
        for seed in (0, 11):
            scalar, kernel = run_scalar_and_kernel(scenario, seed)
            assert_results_identical(scalar, kernel)

    @pytest.mark.parametrize("policy", ("smart_exp3", "exp3", "full_information"))
    def test_static_setting2(self, policy):
        scenario = setting2_scenario(policy=policy, num_devices=6, horizon_slots=120)
        scalar, kernel = run_scalar_and_kernel(scenario, 7)
        assert_results_identical(scalar, kernel)

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_dynamic_join_leave(self, policy):
        # Horizon past the join (t=401) and leave (t=800) edges, so kernel
        # state round-trips through the scalar policies at every topology
        # boundary and across availability changes.
        scenario = dynamic_join_leave_scenario(policy=policy, horizon_slots=850)
        scalar, kernel = run_scalar_and_kernel(scenario, 2)
        assert_results_identical(scalar, kernel)

    @pytest.mark.parametrize("policy", ("smart_exp3", "exp3", "greedy"))
    def test_mobility(self, policy):
        scenario = mobility_scenario(policy=policy, horizon_slots=850)
        scalar, kernel = run_scalar_and_kernel(scenario, 4)
        assert_results_identical(scalar, kernel)

    def test_mixed_kernel_groups_and_frozen_rows(self):
        from repro.sim.scenario import mixed_policy_scenario

        scenario = mixed_policy_scenario(
            {
                "smart_exp3": 3,
                "exp3": 3,
                "greedy": 2,
                "full_information": 2,
                "fixed_random": 2,
            },
            horizon_slots=120,
        )
        scalar, kernel = run_scalar_and_kernel(scenario, 1)
        assert_results_identical(scalar, kernel)

    def test_smart_exp3_reset_coverage(self):
        # A long two-network run drives Smart EXP3 through periodic resets,
        # so the batched reset masks (and the reset_count scatter) are
        # actually exercised, not just carried.
        scenario = setting2_scenario(
            policy="smart_exp3", num_devices=4, horizon_slots=700
        )
        scalar, kernel = run_scalar_and_kernel(scenario, 5)
        assert_results_identical(scalar, kernel)
        assert sum(kernel.resets.values()) > 0


class TestFallbackPolicies:
    def test_policy_without_kernel_stays_bit_exact(self):
        # Centralized/FixedRandom have no kernels; a mixed population forces
        # kernels, frozen rows and the per-device fallback through one run.
        from repro.sim.scenario import mixed_policy_scenario

        scenario = mixed_policy_scenario(
            {"smart_exp3": 2, "centralized": 2, "fixed_random": 2},
            horizon_slots=100,
        )
        event = run_simulation(scenario, seed=6, backend="event")
        kernel = run_simulation(scenario, seed=6, backend="vectorized")
        assert_results_identical(event, kernel)

    def test_nokernel_backend_matches_event(self):
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=5, horizon_slots=90
        )
        event = run_simulation(scenario, seed=8, backend="event")
        scalar = VectorizedSlotExecutor(use_kernels=False).execute(scenario, 8)
        assert_results_identical(event, scalar)
