"""Edge-case coverage for the phase-profiling layer (``repro.profiling``).

The profile payload is consumed by three sinks — ``REPRO_PROFILE`` JSON
lines, ``phase_profile`` telemetry events, and the run registry's
``meta.json`` summaries — so its shape and share arithmetic are contract,
not implementation detail.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.profiling import (
    PHASES,
    PhaseProfile,
    PROFILE_ENV,
    PROFILE_PATH_ENV,
    profile_run,
    profiling_enabled,
    run_provenance,
)
from repro.sim.runner import run_simulation
from repro.sim.scenario import setting1_scenario

#: Payload keys every sink relies on, in no particular order.
PAYLOAD_KEYS = {
    "tag",
    "scenario",
    "devices",
    "slots",
    "total_seconds",
    "seconds",
    "share",
    "device_slots_per_second",
    "provenance",
}


class TestShares:
    def test_zero_duration_run(self, monkeypatch):
        """A run whose clock never advances must not divide by zero."""
        ticks = iter([100.0] * 10)
        monkeypatch.setattr("repro.profiling.time.perf_counter", lambda: next(ticks))
        prof = PhaseProfile("unit")
        payload = prof.payload()
        assert payload["total_seconds"] == 0.0
        assert payload["device_slots_per_second"] is None
        assert all(share == 0.0 for share in payload["share"].values())

    def test_untracked_remainder_lands_in_other(self, monkeypatch):
        ticks = iter([0.0, 0.0, 1.0, 10.0])  # init, t0, add, total
        monkeypatch.setattr("repro.profiling.time.perf_counter", lambda: next(ticks))
        prof = PhaseProfile("unit")
        t0 = prof.now()
        prof.add("sampling", t0)
        payload = prof.payload()
        assert payload["seconds"]["sampling"] == pytest.approx(1.0)
        assert payload["seconds"]["other"] == pytest.approx(9.0)
        assert payload["share"]["sampling"] == pytest.approx(0.1)
        assert payload["share"]["other"] == pytest.approx(0.9)

    def test_tracked_exceeding_total_clamps(self, monkeypatch):
        """Overlapping timers can out-sum wall time; shares must stay in [0, 1].

        The pre-fix computation divided by wall total, so a tracked sum of
        12s over a 10s wall yielded shares summing to 1.2.
        """
        ticks = iter([0.0, 0.0, 8.0, 8.0, 12.0, 10.0])
        monkeypatch.setattr("repro.profiling.time.perf_counter", lambda: next(ticks))
        prof = PhaseProfile("unit")
        t0 = prof.now()
        t0 = prof.add("sampling", t0)  # 8s
        prof.add("physics", t0)  # 4s -> tracked 12s > total 10s
        payload = prof.payload()
        shares = payload["share"]
        assert all(0.0 <= share <= 1.0 for share in shares.values())
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
        # No negative "other" from the clamp.
        assert payload["seconds"].get("other", 0.0) >= 0.0

    def test_shares_sum_to_one_on_real_run(self):
        prof = PhaseProfile("unit")
        t0 = prof.now()
        for phase in ("sampling", "physics", "reward"):
            t0 = prof.add(phase, t0)
        payload = prof.payload()
        assert sum(payload["share"].values()) == pytest.approx(1.0, abs=0.01)
        assert set(payload["seconds"]) <= set(PHASES)


class TestPayloadShape:
    def test_payload_keys_and_provenance(self):
        prof = PhaseProfile("unit")
        prof.devices = 4
        prof.slots = 10
        payload = prof.payload(scenario="s", seed=3)
        assert PAYLOAD_KEYS <= set(payload)
        assert payload["seed"] == 3  # extras pass through
        assert set(payload["provenance"]) == {"cpu_count", "numpy_version"}
        json.dumps(payload)  # every sink serialises it

    def test_run_provenance_matches_bench_header_fields(self):
        provenance = run_provenance()
        assert provenance["cpu_count"] == os.cpu_count()
        assert isinstance(provenance["numpy_version"], str)


class TestGating:
    def test_profile_run_none_when_disabled(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert not profiling_enabled()
        assert profile_run("unit") is None

    def test_profile_run_live_with_env(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert isinstance(profile_run("unit"), PhaseProfile)

    def test_emit_stderr_suppressed_when_only_telemetry(
        self, monkeypatch, tmp_path, capsys
    ):
        """REPRO_TELEMETRY_DIR alone must not print REPRO_PROFILE lines."""
        from repro.telemetry import set_telemetry_dir

        monkeypatch.delenv(PROFILE_ENV, raising=False)
        set_telemetry_dir(tmp_path)
        prof = profile_run("unit")
        assert prof is not None  # telemetry re-bases on the spans
        prof.emit()
        set_telemetry_dir(None)
        assert "REPRO_PROFILE" not in capsys.readouterr().err

    def test_emit_writes_profile_path(self, monkeypatch, tmp_path):
        path = tmp_path / "profile.jsonl"
        monkeypatch.setenv(PROFILE_ENV, "1")
        monkeypatch.setenv(PROFILE_PATH_ENV, str(path))
        prof = profile_run("unit")
        prof.add("sampling", prof.now())
        prof.emit(scenario="s")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["tag"] == "unit"
        assert payload["scenario"] == "s"


def _emit_profiles(worker: int, count: int) -> int:
    """Pool target: emit ``count`` profile lines from this process."""
    for i in range(count):
        prof = PhaseProfile(f"worker{worker}")
        prof.add("sampling", prof.now())
        prof.emit(run=i)
    return worker


class TestConcurrentAppend:
    def test_profile_path_interleaves_whole_lines(self, monkeypatch, tmp_path):
        """Concurrent workers appending to one REPRO_PROFILE_PATH never tear.

        Append-mode writes of one line per emit are atomic enough at these
        sizes that every line parses and none go missing.
        """
        path = tmp_path / "profile.jsonl"
        monkeypatch.setenv(PROFILE_ENV, "1")
        monkeypatch.setenv(PROFILE_PATH_ENV, str(path))
        workers, per_worker = 4, 25
        with ProcessPoolExecutor(max_workers=workers) as pool:
            assert sorted(
                pool.map(_emit_profiles, range(workers), [per_worker] * workers)
            ) == list(range(workers))
        lines = path.read_text().splitlines()
        assert len(lines) == workers * per_worker
        tags = [json.loads(line)["tag"] for line in lines]  # every line parses
        for worker in range(workers):
            assert tags.count(f"worker{worker}") == per_worker


class TestProfiling:
    def _profile_lines(self, path):
        lines = path.read_text().strip().splitlines()
        return [json.loads(line) for line in lines]

    def test_vectorized_run_emits_phase_timings(self, monkeypatch, tmp_path):
        out = tmp_path / "profile.jsonl"
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(out))
        scenario = setting1_scenario(
            policy="exp3", num_devices=6, horizon_slots=100
        )
        run_simulation(scenario, seed=0, backend="vectorized")
        payloads = self._profile_lines(out)
        assert len(payloads) == 1
        payload = payloads[0]
        assert payload["tag"] == "vectorized"
        assert payload["devices"] == 6
        assert payload["slots"] == 100
        assert payload["device_slots_per_second"] > 0
        # A learning population runs the engine's phases every slot, so
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
