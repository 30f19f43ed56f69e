"""Compiled-window and profiling coverage.

Three contracts from the compiled-fast-path layer:

* **The compiled mega-loop is distribution-exact.**  The slot engine's
  single-shard loop hands a qualifying draw window to
  ``EXP3Kernel.advance_window``; the pure-Python ``exp3_window_impl`` body
  (the exact code numba compiles) must then match the per-slot path
  statistically — same uniform draw stream, same sampling decisions,
  transcendentals allowed to differ in the last ulp — which the suite
  checks by installing it as the "jitted" kernel and applying the
  fixed-seed KS / mean-rate branch.  Where numba is installed the genuinely
  jitted kernel goes through the same assertions.  Windows never engage
  when they cannot be exact: a stochastic delay model or probability
  recording keeps the per-slot path.
* **Requesting compilation without numba degrades gracefully**: one logged
  warning, per-slot execution, results still bit-exact.
* **The profiling hooks emit per-phase JSON** when enabled.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

import repro.algorithms.kernels.compiled as compiled_mod
from repro.algorithms.kernels.compiled import (
    NUMBA_AVAILABLE,
    compiled_enabled,
    compiled_requested,
    exp3_window_impl,
    numba_version,
)
from repro.algorithms.kernels.exp3 import EXP3Kernel
from repro.sim.delay import ConstantDelayModel
from repro.sim.runner import run_simulation
from repro.sim.scenario import setting1_scenario

from tests.test_backends import assert_results_identical


def stream_free(scenario, delay_model=None):
    """The scenario with a stream-free delay model (the window precondition)."""
    return replace(scenario, delay_model=delay_model or ConstantDelayModel())


def install_reference_compiled_kernel(monkeypatch):
    """Install the pure-Python mega-loop as the "jitted" kernel.

    ``exp3_window_impl`` is the exact function numba compiles, so running it
    through ``EXP3Kernel.advance_window`` exercises the compiled semantics
    (draw indexing, in-place writes, scratch buffers) on machines without
    numba.
    """
    calls = {"n": 0}

    def fake_kernel():
        def wrapper(*args):
            calls["n"] += 1
            return exp3_window_impl(*args)

        return wrapper

    monkeypatch.setattr(
        "repro.algorithms.kernels.exp3.exp3_window_kernel", fake_kernel
    )
    return calls


def assert_distribution_exact(reference, candidate):
    """The distribution-exact branch: fixed-seed KS + tight mean agreement."""
    ref_rates = reference.rates_2d[reference.active_2d]
    cand_rates = candidate.rates_2d[candidate.active_2d]
    ks = scipy_stats.ks_2samp(ref_rates, cand_rates)
    assert ks.pvalue > 0.01, ks
    assert np.mean(cand_rates) == pytest.approx(np.mean(ref_rates), rel=0.05)
    # The uniform draws are stream-identical, so the realised choice
    # *distribution* must agree per network, not just the rates.
    for net in np.unique(reference.choices_2d[reference.active_2d]):
        ref_frac = np.mean(reference.choices_2d[reference.active_2d] == net)
        cand_frac = np.mean(candidate.choices_2d[candidate.active_2d] == net)
        assert cand_frac == pytest.approx(ref_frac, abs=0.05)


class TestFusedWindowEngagement:
    def test_empirical_delays_keep_the_per_slot_path(self, monkeypatch):
        # The default EmpiricalDelayModel consumes the RNG stream per switch,
        # so a window cannot resolve its delays from a table: the engine
        # must never offer one, even with the compiled loop installed.
        scenario = setting1_scenario(
            policy="exp3", num_devices=6, horizon_slots=80
        )
        calls = install_reference_compiled_kernel(monkeypatch)
        offered = []
        original = EXP3Kernel.advance_window

        def spy(self, window):
            offered.append(window.n_slots)
            return original(self, window)

        monkeypatch.setattr(EXP3Kernel, "advance_window", spy)
        for record in (True, False):
            vectorized = run_simulation(
                scenario, seed=1, backend="vectorized",
                record_probabilities=record,
            )
            event = run_simulation(
                scenario, seed=1, backend="event", record_probabilities=record
            )
            assert_results_identical(event, vectorized)
        assert offered == []
        assert calls["n"] == 0


class TestCompiledWindowSemantics:
    def _scenario(self):
        return stream_free(
            setting1_scenario(policy="exp3", num_devices=8, horizon_slots=400)
        )

    def test_reference_impl_is_distribution_exact(self, monkeypatch):
        scenario = self._scenario()
        per_slot = run_simulation(
            scenario, seed=9, backend="vectorized", record_probabilities=False
        )
        calls = install_reference_compiled_kernel(monkeypatch)
        compiled = run_simulation(
            scenario, seed=9, backend="vectorized", record_probabilities=False
        )
        assert calls["n"] >= 1
        assert_distribution_exact(per_slot, compiled)
        # Physics invariants hold exactly: activity masks match, and every
        # charged delay is the stream-free constant for the entered network.
        assert np.array_equal(per_slot.active_2d, compiled.active_2d)
        charged = compiled.delays_2d[compiled.switches_2d]
        assert set(np.unique(charged)) <= {2.0, 3.0}

    def test_probability_recording_falls_back_to_interpreted(self, monkeypatch):
        # The compiled loop does not write the probability tensor; with
        # recording on the kernel declines the window, the engine stays on
        # the per-slot path and the run stays bit-exact.
        scenario = self._scenario()
        calls = install_reference_compiled_kernel(monkeypatch)
        full = run_simulation(scenario, seed=9, backend="vectorized")
        assert calls["n"] == 0
        event = run_simulation(scenario, seed=9, backend="event")
        assert_results_identical(event, full)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_jitted_kernel_is_distribution_exact(self, monkeypatch):
        scenario = self._scenario()
        monkeypatch.setenv("REPRO_COMPILED", "0")
        per_slot = run_simulation(
            scenario, seed=9, backend="vectorized", record_probabilities=False
        )
        monkeypatch.setenv("REPRO_COMPILED", "1")
        assert compiled_enabled()
        compiled = run_simulation(
            scenario, seed=9, backend="vectorized", record_probabilities=False
        )
        assert_distribution_exact(per_slot, compiled)


class TestGracefulSkip:
    def test_opt_in_without_numba_warns_once_and_stays_bit_exact(
        self, monkeypatch, caplog
    ):
        if NUMBA_AVAILABLE:
            pytest.skip("graceful-skip path only exists without numba")
        monkeypatch.setenv("REPRO_BENCH_COMPILED", "1")
        monkeypatch.setattr(compiled_mod, "_warned_unavailable", False)
        with caplog.at_level("WARNING", logger="repro.compiled"):
            assert compiled_requested()
            assert not compiled_enabled()
            assert not compiled_enabled()  # second query: no second warning
        warnings = [
            r for r in caplog.records if "numba is not installed" in r.message
        ]
        assert len(warnings) == 1
        assert numba_version() is None
        # The run itself must be unaffected: per-slot path, bit-exact.
        scenario = stream_free(
            setting1_scenario(policy="exp3", num_devices=6, horizon_slots=120)
        )
        event = run_simulation(scenario, seed=3, backend="event")
        vectorized = run_simulation(scenario, seed=3, backend="vectorized")
        assert_results_identical(event, vectorized)

    def test_zero_disables_even_with_numba(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert not compiled_requested()
        assert not compiled_enabled()


class TestProfiling:
    def _profile_lines(self, path):
        lines = path.read_text().strip().splitlines()
        return [json.loads(line) for line in lines]

    def test_vectorized_run_emits_phase_timings(self, monkeypatch, tmp_path):
        out = tmp_path / "profile.jsonl"
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(out))
        scenario = stream_free(
            setting1_scenario(policy="exp3", num_devices=6, horizon_slots=100)
        )
        run_simulation(scenario, seed=0, backend="vectorized")
        payloads = self._profile_lines(out)
        assert len(payloads) == 1
        payload = payloads[0]
        assert payload["tag"] == "vectorized"
        assert payload["devices"] == 6
        assert payload["slots"] == 100
        assert payload["device_slots_per_second"] > 0
        # Without the compiled tier every slot runs the engine's phases, so
        # each of them must carry measurable time.
        for phase in ("sampling", "physics", "delays", "reward"):
            assert payload["seconds"][phase] > 0
        # Shares are rounded for readability; they must still sum to ~1.
        assert abs(sum(payload["share"].values()) - 1.0) < 1e-2

    def test_sharded_run_emits_phase_timings(self, monkeypatch, tmp_path):
        from repro.sim.sharded import ShardedSlotExecutor

        out = tmp_path / "profile.jsonl"
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(out))
        scenario = setting1_scenario(
            policy="exp3", num_devices=8, horizon_slots=60
        )
        ShardedSlotExecutor(shards=2).execute(scenario, 1)
        payloads = [
            p
            for p in self._profile_lines(out)
            if p["tag"].startswith("sharded-worker")
        ]
        assert payloads
        payload = payloads[-1]
        for phase in ("sampling", "bus_exchange", "reward"):
            assert phase in payload["seconds"]
        assert payload["devices"] == 8

    def test_disabled_by_default(self, monkeypatch, tmp_path):
        out = tmp_path / "profile.jsonl"
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(out))
        scenario = setting1_scenario(
            policy="exp3", num_devices=4, horizon_slots=40
        )
        run_simulation(scenario, seed=0, backend="vectorized")
        assert not out.exists()
