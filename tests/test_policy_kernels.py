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
import pickle

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
from repro.algorithms.kernels import exp3 as exp3_kernel
from repro.algorithms.kernels.greedy import GreedyKernel
from repro.sim.backends import VectorizedSlotExecutor, get_backend
from repro.sim.delay import (
    ConstantDelayModel,
    DelayModel,
    EmpiricalDelayModel,
    NoDelayModel,
    SwitchCells,
)
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


def stack_networks(cellular_col: int) -> list[Network]:
    """One run's three networks (ids 0-2); the one at ``cellular_col`` is
    cellular, the others WiFi."""
    return [
        Network(
            network_id=col,
            bandwidth_mbps=(4.0, 7.0, 22.0)[col],
            network_type=(
                NetworkType.CELLULAR if col == cellular_col else NetworkType.WIFI
            ),
        )
        for col in range(3)
    ]


def switch_columns(rng: np.random.Generator, length: int) -> np.ndarray:
    """``length`` switch columns, from long same-column runs to alternation."""
    flips = rng.random(length) < rng.random()
    return (np.cumsum(flips) + rng.integers(0, 3)) % 3


def assert_stack_matches_sequential(model, runs, cols, seed, duration):
    """A stack's one sample_many call against each run's own sequential,
    clamped sample() calls: the same bytes, and every generator left in
    the same state (a run without a switch untouched)."""
    per_run = len(runs[0])
    table = SwitchCells(runs)
    rngs = [np.random.default_rng(seed * 10 + run) for run in range(len(runs))]
    twins = [np.random.default_rng(seed * 10 + run) for run in range(len(runs))]
    untouched = [rng.bit_generator.state for rng in rngs]
    expected = [
        min(max(model.sample(networks[int(col)], twin), 0.0), duration)
        for networks, run_cols, twin in zip(runs, cols, twins)
        for col in run_cols
    ]
    cells = np.concatenate(
        [per_run * run + np.asarray(run_cols, dtype=np.intp) for run, run_cols in enumerate(cols)]
    ).astype(np.intp)
    got = model.sample_many(table, cells, rngs, duration)
    assert got.dtype == np.float64
    assert got.tobytes() == np.asarray(expected, dtype=float).tobytes()
    for run, (rng, twin) in enumerate(zip(rngs, twins)):
        assert rng.bit_generator.state == twin.bit_generator.state
        if not len(cols[run]):
            assert rng.bit_generator.state == untouched[run]


class TestKernelRegistry:
    def test_builtin_resolution(self):
        from tests.conftest import make_context

        assert kernel_for_policy(EXP3Policy(make_context())) is EXP3Kernel
        # Table-III variants resolve through the MRO to the Smart EXP3 kernel.
        assert kernel_for_policy(BlockEXP3Policy(make_context())) is SmartEXP3Kernel
        assert kernel_for_policy(FixedRandomPolicy(make_context())) is None

    def test_pickled_variant_keeps_its_kernel(self):
        # Pickling an instance makes copyreg cache __slotnames__ on its
        # class (a checkpoint pickles its scalar rows' policies); that must
        # not read as an override of the Smart EXP3 kernel.
        from tests.conftest import make_context

        class PickledVariant(BlockEXP3Policy):
            pass

        policy = PickledVariant(make_context())
        policy.__reduce_ex__(pickle.HIGHEST_PROTOCOL)  # what pickle.dumps calls
        assert "__slotnames__" in vars(PickledVariant)
        assert kernel_for_policy(policy) is SmartEXP3Kernel

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
        # One sample_many call for a stack of 1-4 runs over three network
        # ids whose cellular network differs per run (id 2 in setting 1, id
        # 0 in setting 2), some run without a switch: each run's delays,
        # and its generator afterwards, must equal that run's own
        # sequential sample() calls, clamped to the slot.  The empirical
        # model batches its draws; the stream-free models look theirs up
        # per network type (a 2.5 s or shorter slot clamps the constant
        # model's 3 s cellular delay, 2 s ties its WiFi delay); a model
        # overriding only sample() takes the base class's per-switch loop.
        class SampleOnlyDelayModel(DelayModel):
            def sample(self, network, rng):
                return float(network.network_id) + 2.0 * rng.random()

        picks = np.random.default_rng(12)
        for model in (
            EmpiricalDelayModel(),
            SampleOnlyDelayModel(),
            NoDelayModel(),
            ConstantDelayModel(),
        ):
            for seed in range(40):
                num_runs = 1 + seed % 4
                runs = [
                    stack_networks(cellular_col=(2, 0, 1)[(seed + run) % 3])
                    for run in range(num_runs)
                ]
                lengths = picks.integers(0, 120, size=num_runs)
                lengths[seed % num_runs] = max(lengths[seed % num_runs], 1)
                if num_runs > 1 and seed % 5 == 0:
                    lengths[(seed + 1) % num_runs] = 0
                cols = [switch_columns(picks, int(length)) for length in lengths]
                duration = (15.0, 2.5, 2.0, 0.5)[seed // 10]
                assert_stack_matches_sequential(model, runs, cols, seed, duration)
        # One run: forty networks, batches from long same-type runs to near
        # alternation, and WiFi runs of every length from 1 to 70 between
        # cellular switches (each WiFi run is one random(out=...) call).
        model = EmpiricalDelayModel()
        forty = [
            Network(
                network_id=i,
                bandwidth_mbps=5.0,
                network_type=(
                    NetworkType.CELLULAR if i % 3 == 0 else NetworkType.WIFI
                ),
            )
            for i in range(40)
        ]
        for seed in range(10):
            assert_stack_matches_sequential(
                model, [forty], [np.arange(40)], seed, 15.0
            )
        pair = stack_networks(cellular_col=1)[:2]
        every_length = np.concatenate(
            [np.r_[np.zeros(length, dtype=np.intp), 1] for length in range(1, 71)]
        )
        batches = [
            np.empty(0, dtype=np.intp),
            np.asarray([0]),
            np.asarray([1]),
            np.zeros(300, dtype=np.intp),
            np.ones(300, dtype=np.intp),
            np.arange(300) % 2,
            1 - np.arange(299) % 2,
            every_length,
            every_length[::-1].copy(),
        ]
        for length in picks.integers(0, 301, size=10):
            flips = picks.random(length) < picks.random()
            batches.append(np.cumsum(flips) % 2)
        for seed, batch in enumerate(batches):
            assert_stack_matches_sequential(model, [pair], [batch], seed, 15.0)

    def test_switching_delays_clamp_like_scalar(self):
        # A stochastic model whose raw delays need the clamp: signed zeros,
        # negatives and values past the slot.  The batch must match the
        # per-device clamp byte for byte (a plain np.maximum turns -0.0
        # into 0.0), for stacks of one to four runs of both settings, whose
        # cellular networks are ids 2 and 0.
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

        model = UnclampedDelayModel()
        scenarios = [
            dataclasses.replace(
                factory(num_devices=3, horizon_slots=10), delay_model=model
            )
            for factory in (setting1_scenario, setting2_scenario)
        ]
        assert all(s.slot_duration_s == 15.0 for s in scenarios)
        picks = np.random.default_rng(0)
        seen: list[float] = []
        for seed in range(8):
            stack = [scenarios[(seed + run) % 2] for run in range(1 + seed % 4)]
            singles = [
                WirelessEnvironment(s, np.random.default_rng(seed * 10 + r))
                for r, s in enumerate(stack)
            ]
            batches = [
                WirelessEnvironment(s, np.random.default_rng(seed * 10 + r))
                for r, s in enumerate(stack)
            ]
            ids = [picks.integers(0, 3, size=picks.integers(0, 40)) for _ in stack]
            expected = [
                single.switching_delay(int(n))
                for single, run_ids in zip(singles, ids)
                for n in run_ids
            ]
            table = SwitchCells(
                [[s.network_map[k] for k in (0, 1, 2)] for s in stack]
            )
            cells = np.concatenate(
                [3 * run + run_ids for run, run_ids in enumerate(ids)]
            ).astype(np.intp)
            got = model.sample_many(
                table, cells, [env.rng for env in batches], 15.0
            )
            assert got.dtype == np.float64
            assert got.tobytes() == np.asarray(expected, dtype=float).tobytes()
            for single, other in zip(singles, batches):
                assert single.rng.bit_generator.state == other.rng.bit_generator.state
            seen += expected
        assert {-0.0, 15.0} <= set(seen)
        assert any(math.copysign(1.0, d) < 0 for d in seen)


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


class TestUnrecordedStrategies:
    @pytest.mark.parametrize(
        "record, best_locals, row_sums", [(False, 1, 0), (True, 2, 1)]
    )
    def test_kernels_build_a_strategy_only_to_record_it(
        self, monkeypatch, record, best_locals, row_sums
    ):
        # One stack of Greedy, EXP3 and Full Information runs: Greedy picks
        # its networks once a slot and EXP3 renormalises its strategy only
        # for the probability record, which the results stay exact without.
        horizon = 30
        cells = [
            (setting1_scenario(policy=policy, num_devices=4, horizon_slots=horizon), seed)
            for seed, policy in enumerate(("greedy", "exp3", "full_information"))
        ]
        calls = {"best_locals": 0, "row_sums": 0}

        def counted(name, function):
            def spy(*args):
                calls[name] += 1
                return function(*args)

            return spy

        monkeypatch.setattr(
            GreedyKernel, "_best_locals", counted("best_locals", GreedyKernel._best_locals)
        )
        monkeypatch.setattr(
            exp3_kernel,
            "sequential_row_sum",
            counted("row_sums", exp3_kernel.sequential_row_sum),
        )
        stacked = get_backend("vectorized").execute_stack(cells, record)
        assert calls == {
            "best_locals": best_locals * horizon,
            "row_sums": row_sums * horizon,
        }
        for (scenario, seed), result in zip(cells, stacked):
            event = get_backend("event").execute(
                scenario, seed, record_probabilities=record
            )
            assert_results_identical(event, result)


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
