"""The Smart-EXP3 kernel's one-pass helpers, lookup tables and row state.

The kernel replaces the scalar policy's per-row arithmetic with batched
helpers and per-kernel lookup tables; each must equal the scalar expression
bit for bit.  The churn test drives membership edits at a kernel size equal
to a table's length, where a lookup table could be mistaken for row state.
The family tests pin the grouping: the Table III variants share one kernel
per visible set, and a config that differs beyond the flags does not.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms.kernels import SmartEXP3Kernel
from repro.algorithms.kernels.smart_exp3 import (
    _TABLE_START,
    _TYPE_LIST,
    switch_back_rows,
    window_medians,
)
from repro.core.blocking import BlockScheduler, SelectionType
from repro.core.config import SmartEXP3Config
from repro.core.smart_exp3 import SmartEXP3Policy
from repro.core.switchback import BlockHistory, SwitchBackRule
from repro.experiments import fig04_distance_static
from repro.experiments.common import ExperimentConfig
from repro.sim.backends import VectorizedSlotExecutor
from repro.sim.runner import run_simulation
from repro.sim.scenario import TraceChurn, churn_scenario, mobility_scenario

from tests.conftest import make_context
from tests.test_backends import assert_results_identical


def make_kernel(config: SmartEXP3Config | None = None) -> SmartEXP3Kernel:
    policies = [SmartEXP3Policy(make_context(seed=s), config) for s in range(2)]
    recorder = SimpleNamespace(network_col={0: 0, 1: 1, 2: 2}, probabilities=None)
    return SmartEXP3Kernel(
        [(row, None, policy) for row, policy in enumerate(policies)], recorder
    )


def scalar_gammas(policy: SmartEXP3Policy, count: int) -> list[float]:
    return [policy._gamma(index) for index in range(count)]


def scalar_lengths(beta: float, count: int) -> list[int]:
    scheduler = BlockScheduler(beta=beta)
    lengths = []
    for selections in range(count):
        scheduler.load_counts((0,), [selections])
        lengths.append(scheduler.block_length(0))
    return lengths


def random_gains(rng: np.random.Generator, size: int) -> np.ndarray:
    """Arbitrary doubles, or quarter steps (ties) about half of the time."""
    if rng.random() < 0.5:
        return rng.integers(0, 5, size=size) / 4
    return rng.random(size)


class TestLookupTables:
    @pytest.mark.parametrize(
        "config",
        (SmartEXP3Config.full(), SmartEXP3Config.full().replace(fixed_gamma=0.3)),
    )
    def test_gamma_table_matches_scalar(self, config):
        kernel = make_kernel(config)
        got = kernel._gammas(np.arange(5001)).tolist()
        assert got == scalar_gammas(kernel.policies[0], 5001)

    def test_length_table_matches_scalar(self):
        kernel = make_kernel()
        got = kernel._lengths(np.arange(5001)).tolist()
        # Python compares the float entries with the exact int lengths.
        assert got == scalar_lengths(kernel.config.beta, 5001)

    def test_length_table_overflows_where_scalar_does(self):
        # 1.5 ** 1750 is the last finite power: selection counts climbing one
        # at a time must reach it without the table evaluating past it.
        last = 1750
        kernel = make_kernel(SmartEXP3Config.full().replace(beta=0.5))
        for count in range(last + 1):
            kernel._lengths(np.array([count]))
        assert kernel._length_table.tolist() == scalar_lengths(0.5, last + 1)
        with pytest.raises(OverflowError):
            scalar_lengths(0.5, last + 2)
        with pytest.raises(OverflowError):
            kernel._lengths(np.array([last + 1]))


class TestOnePassHelpers:
    def test_window_medians_match_np_median(self):
        detector = SmartEXP3Policy(make_context())._reset_policy.drop_detector
        window = detector.window_slots
        width = detector.reference_window_slots + window
        rng = np.random.default_rng(0)
        rows, lengths, expected = [], [], []
        first = detector.min_connection_slots + window + 1
        for length in range(first, width + 1):
            for _ in range(25):
                gains = random_gains(rng, length)
                # Stale entries left of the history must be ignored.
                row = rng.random(width) * 3.0
                row[width - length :] = gains
                rows.append(row)
                lengths.append(length)
                expected.append(
                    (
                        float(np.median(gains[:-window])),
                        float(np.median(gains[-window:])),
                    )
                )
        assert {length - window for length in lengths} >= {5, 6, 15, 16}
        reference, recent = window_medians(
            np.asarray(rows), np.asarray(lengths), window
        )
        assert reference.tolist() == [pair[0] for pair in expected]
        assert recent.tolist() == [pair[1] for pair in expected]

    def test_switch_back_rows_match_rule(self):
        window = SmartEXP3Config.full().switchback_window
        rule = SwitchBackRule(window=window)
        rng = np.random.default_rng(1)
        rows, lengths, gains, expected = [], [], [], []
        for length in range(1, window + 1):
            for _ in range(200):
                previous = random_gains(rng, length)
                pick = rng.random()
                if pick < 0.2:
                    gain = float(rng.choice(previous))
                elif pick < 0.4:
                    # Exactly on the average threshold, so an average summed
                    # in another order (one ulp off) flips the decision.
                    gain = sum(previous.tolist()) / length - 1e-12
                elif pick < 0.6:
                    # Within and just outside the rule's 1e-12 tolerance.
                    gain = float(np.mean(previous)) + float(
                        rng.choice([-2e-12, -5e-13, 5e-13, 2e-12])
                    )
                else:
                    gain = float(rng.random())
                row = np.zeros(window)
                row[window - length :] = previous
                rows.append(row)
                lengths.append(length)
                gains.append(gain)
                expected.append(
                    rule.should_switch_back(
                        first_slot_gain=gain,
                        current_network=1,
                        previous_block=BlockHistory(0, list(previous), window),
                        current_block_is_switch_back=False,
                        previous_block_was_switch_back=False,
                    )
                )
        got = switch_back_rows(
            np.asarray(rows), np.asarray(lengths), np.asarray(gains)
        )
        assert got.tolist() == expected
        assert 0 < sum(expected) < len(expected)


def assert_tables_intact(kernel: SmartEXP3Kernel) -> None:
    gammas = kernel._gamma_table
    lengths = kernel._length_table
    assert gammas.tolist() == scalar_gammas(kernel.policies[0], gammas.size)
    assert lengths.tolist() == scalar_lengths(kernel.config.beta, lengths.size)


class TestRowStateUnderChurn:
    def test_churn_at_table_size_is_bit_exact(self, monkeypatch):
        # Sixty devices stay for the whole run while twelve join and later
        # leave, so the one kernel grows from 60 to 72 rows and shrinks
        # again, passing the length of a freshly filled lookup table (64)
        # on membership edits both ways.
        resident = _TABLE_START - 4
        windows = [(1, None)] * resident + [
            (20 + 4 * i, 80 + 5 * i) for i in range(12)
        ]
        scenario = churn_scenario(
            num_devices=len(windows),
            policy="smart_exp3",
            horizon_slots=160,
            churn=TraceChurn(tuple(windows)),
            seed=3,
        )
        edits = []

        def checked(edit):
            def wrapper(self, argument):
                before = (self.size, self._gamma_table.size, self._length_table.size)
                edit(self, argument)
                edits.append(before)
                assert_tables_intact(self)

            return wrapper

        starts = []
        begin_slot = SmartEXP3Kernel.begin_slot

        def recording_begin_slot(self, slot):
            starting = self.blk_done.copy()
            cols = begin_slot(self, slot)
            starts.append({_TYPE_LIST[code] for code in self.blk_type[starting]})
            return cols

        for name in ("remove_rows", "absorb"):
            monkeypatch.setattr(
                SmartEXP3Kernel, name, checked(getattr(SmartEXP3Kernel, name))
            )
        monkeypatch.setattr(SmartEXP3Kernel, "begin_slot", recording_begin_slot)

        scalar = VectorizedSlotExecutor(use_kernels=False).execute(scenario, 4)
        kernel = run_simulation(scenario, seed=4, backend="vectorized")
        assert_results_identical(scalar, kernel)
        assert any(size in (gammas, lengths) for size, gammas, lengths in edits)
        learned = {
            SelectionType.GREEDY,
            SelectionType.RANDOM,
            SelectionType.RANDOM_AFTER_COIN,
        }
        assert any(
            SelectionType.SWITCH_BACK in kinds
            and SelectionType.EXPLORATION in kinds
            and kinds & learned
            for kinds in starts
        )


class TestFamilyGroup:
    """The Table III variants share one kernel group per visible set."""

    @staticmethod
    def built_kernels(monkeypatch) -> list[SmartEXP3Kernel]:
        """Record every Smart EXP3 kernel the engine constructs."""
        built = []
        init = SmartEXP3Kernel.__init__

        def recording(self, entries, recorder):
            init(self, entries, recorder)
            built.append(self)

        monkeypatch.setattr(SmartEXP3Kernel, "__init__", recording)
        return built

    def test_fig04_grid_builds_one_family_kernel(self, monkeypatch):
        # Both settings and all nine policies in one engine: every family
        # row (4 variants x 2 settings x 20 devices) sees networks 0-2, so
        # one kernel holds them all, each row with its variant's flags.
        built = self.built_kernels(monkeypatch)
        fig04_distance_static.run(ExperimentConfig(runs=1, horizon_slots=20))
        (kernel,) = built
        assert kernel.nets == (0, 1, 2)
        assert kernel.size == 4 * 2 * 20
        flags = np.stack(
            [kernel.explore_on, kernel.greedy_on, kernel.switchback_on, kernel.reset_on],
            axis=1,
        )
        assert {tuple(row) for row in flags.tolist()} == {
            (False, False, False, False),  # Block EXP3
            (True, True, False, False),  # Hybrid Block EXP3
            (True, True, True, False),  # Smart EXP3 w/o Reset
            (True, True, True, True),  # Smart EXP3
        }

    def test_one_kernel_per_visible_set_and_config(self, monkeypatch):
        # Mobility: a kernel per visible set at the first slot (members are
        # gathered there, before any move).  A config that differs beyond the
        # flags (β) adds a group of its own on each visible set it reaches.
        built = self.built_kernels(monkeypatch)
        scenario = mobility_scenario(horizon_slots=1)
        variants = ("block_exp3", "smart_exp3_no_reset", "smart_exp3")
        for index, spec in enumerate(scenario.device_specs):
            spec.policy = variants[index % len(variants)]
        beta = scenario.device_specs[0]
        beta.policy, beta.policy_kwargs = "smart_exp3", {"beta": 0.2}
        result = run_simulation(scenario, seed=1, backend="vectorized")
        visible = {
            frozenset(scenario.coverage.visible_networks(spec.device, 1))
            for spec in scenario.device_specs
        }
        groups = {(kernel.nets, kernel.config.beta) for kernel in built}
        assert len(built) == len(groups) == len(visible) + 1
        assert {nets for nets, _ in groups} == {tuple(sorted(v)) for v in visible}
        assert_results_identical(
            run_simulation(scenario, seed=1, backend="event"), result
        )
