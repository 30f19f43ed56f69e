"""Fault-tolerance suite: checkpoint/resume, fault injection, supervision.

The acceptance contract of the fault-tolerance layer
(:mod:`repro.sim.sharded.checkpoint` / :mod:`repro.sim.sharded.faults`):

* a sharded run killed at *any* point — first slot, mid-exchange, between
  checkpoints, hard or soft, serial or multiprocess — and resumed from its
  last committed checkpoint produces **byte-identical** results to a run
  that never crashed, across stationary/churn/mobility scenarios and both
  the gather and streaming-reducer paths;
* a hung or crashed worker is detected within the barrier timeout and
  either recovered (bounded restarts from the last checkpoint) or surfaced
  as :class:`ShardFailureError` with per-worker diagnostics — never an
  infinite barrier hang;
* a corrupted or mismatched checkpoint is refused loudly
  (:class:`CheckpointError`), never silently restored.
"""

from __future__ import annotations

import json
import pickle
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.kernels import SmartEXP3Kernel
from repro.analysis.reducers import DownloadReducer, SummaryReducer
from repro.experiments.common import ExperimentConfig
from repro.game.gain import NoisyShareModel
from repro.sim.delay import EmpiricalDelayModel
from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import (
    mobility_scenario,
    per_slot_churn_scenario,
    setting1_scenario,
)
from repro.sim.sharded import (
    BusTimeoutError,
    CheckpointConfig,
    CheckpointError,
    CorruptCheckpoint,
    DelayExchange,
    FaultPlan,
    InjectedFault,
    KillWorker,
    ShardFailureError,
    ShardedSlotExecutor,
    SupervisionConfig,
    latest_checkpoint,
)
from repro.sim.sharded.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    MANIFEST_NAME,
    shard_file_name,
)
from repro.sim.sharded.engine import ShardEngine
from repro.telemetry import read_events, set_telemetry_dir
from tests.test_backends import assert_results_identical, dynamic_scenarios

#: Test-speed supervision: tiny backoff, fast exit-code polling.
FAST = SupervisionConfig(
    barrier_timeout_s=60.0, backoff_s=0.01, poll_interval_s=0.2
)


def durable_executor(tmp_path, *, shards=3, workers=1, every=7, **kwargs):
    kwargs.setdefault("supervision", FAST)
    return ShardedSlotExecutor(
        shards=shards,
        workers=workers,
        checkpoint=CheckpointConfig(every_slots=every, dir=tmp_path / "ckpt"),
        **kwargs,
    )


class TestConfigValidation:
    def test_checkpoint_config(self):
        with pytest.raises(ValueError, match="every_slots"):
            CheckpointConfig(every_slots=0, dir="/tmp/x")
        with pytest.raises(ValueError, match="keep"):
            CheckpointConfig(every_slots=10, dir="/tmp/x", keep=0)
        assert CheckpointConfig(every_slots=10, dir="/tmp/x").keep == 2

    def test_supervision_config(self):
        with pytest.raises(ValueError, match="barrier_timeout_s"):
            SupervisionConfig(barrier_timeout_s=0)
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisionConfig(max_restarts=-1)
        with pytest.raises(ValueError, match="backoff_s"):
            SupervisionConfig(backoff_s=-0.1)
        with pytest.raises(ValueError, match="poll_interval_s"):
            SupervisionConfig(poll_interval_s=0)

    def test_kill_worker_validation(self):
        with pytest.raises(ValueError, match="point"):
            KillWorker(worker=0, slot=5, point="sideways")
        with pytest.raises(ValueError, match="slot"):
            KillWorker(worker=0, slot=0)

    def test_run_many_validates_shards_against_devices(self):
        scenario = setting1_scenario(num_devices=4, horizon_slots=20)
        with pytest.raises(ValueError, match="4 device"):
            run_many(scenario, runs=1, backend="sharded", shards=9)

    def test_run_many_validates_workers_against_shards(self):
        scenario = setting1_scenario(num_devices=8, horizon_slots=20)
        with pytest.raises(ValueError, match="workers=5 exceeds shards=2"):
            run_many(scenario, runs=1, backend="sharded", shards=2, workers=5)

    def test_experiment_config_durability_validation(self):
        with pytest.raises(ValueError, match="workers=8 exceeds shards=2"):
            ExperimentConfig(backend="sharded", shards=2, workers=8)


class TestSerialCrashResume:
    """Kill → supervised restart from checkpoint → bit-exact results."""

    @pytest.mark.parametrize("kill_slot,point", [
        (1, "begin"),    # before the first checkpoint: restart is from scratch
        (7, "end"),      # immediately after a checkpoint commit
        (12, "mid"),     # mid-exchange, between checkpoints
        (37, "begin"),   # late, several checkpoints in
    ])
    def test_stationary_bit_exact(self, tmp_path, kill_slot, point):
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=9, horizon_slots=40
        )
        reference = ShardedSlotExecutor(shards=3).execute(scenario, seed=5)
        executor = durable_executor(
            tmp_path,
            fault_plan=FaultPlan(
                (KillWorker(worker=0, slot=kill_slot, point=point),)
            ),
        )
        assert_results_identical(reference, executor.execute(scenario, seed=5))

    @pytest.mark.parametrize("factory", [
        lambda: per_slot_churn_scenario(num_devices=12),
        lambda: mobility_scenario(horizon_slots=50),
    ])
    def test_dynamic_scenarios_bit_exact(self, tmp_path, factory):
        scenario = factory()
        kill_slot = max(2, (2 * scenario.horizon_slots) // 3)
        reference = ShardedSlotExecutor(shards=3).execute(scenario, seed=11)
        executor = durable_executor(
            tmp_path,
            fault_plan=FaultPlan((KillWorker(worker=0, slot=kill_slot),)),
        )
        assert_results_identical(reference, executor.execute(scenario, seed=11))

    @pytest.mark.parametrize("reducer_factory", [SummaryReducer, DownloadReducer])
    def test_reducer_path_byte_identical(self, tmp_path, reducer_factory):
        scenario = setting1_scenario(
            policy="exp3", num_devices=9, horizon_slots=40
        )
        reference = ShardedSlotExecutor(shards=3, window_slots=16).map_reduced(
            scenario, 5, reducer_factory()
        )
        executor = durable_executor(
            tmp_path,
            window_slots=16,
            fault_plan=FaultPlan((KillWorker(worker=0, slot=23),)),
        )
        resumed = executor.map_reduced(scenario, 5, reducer_factory())
        assert pickle.dumps(reference) == pickle.dumps(resumed)

    def test_cadence_aligned_with_window_bit_exact(self, tmp_path):
        # Checkpoint cadence == reducer window: every snapshot lands right
        # after a window flush, so the engine pickle elides the
        # freshly-zeroed recorder blocks (the ``_RecorderStub`` path).
        # Resume from such a checkpoint must still be byte-identical.
        scenario = setting1_scenario(
            policy="exp3", num_devices=9, horizon_slots=48
        )
        reference = ShardedSlotExecutor(shards=3, window_slots=16).map_reduced(
            scenario, 5, SummaryReducer()
        )
        executor = durable_executor(
            tmp_path,
            every=16,
            window_slots=16,
            fault_plan=FaultPlan((KillWorker(worker=0, slot=23),)),
        )
        resumed = executor.map_reduced(scenario, 5, SummaryReducer())
        assert pickle.dumps(reference) == pickle.dumps(resumed)

    def test_mixed_kernel_and_scalar_policies_bit_exact(self, tmp_path):
        # Kernel-resident rows are rebuilt from seeds on restore; rows whose
        # policy has no batched kernel (fixed_random) keep live scalar state
        # and ride along in the snapshot's ``scalar_rows`` — a crash must
        # not lose either kind.
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=9, horizon_slots=40
        )
        for spec in scenario.device_specs[::3]:
            spec.policy = "fixed_random"
            spec.policy_kwargs = {}
        reference = ShardedSlotExecutor(shards=3).execute(scenario, seed=5)
        executor = durable_executor(
            tmp_path,
            fault_plan=FaultPlan((KillWorker(worker=0, slot=23),)),
        )
        assert_results_identical(reference, executor.execute(scenario, seed=5))

    def test_mixed_variant_family_group_bit_exact(self, tmp_path):
        # The four Table III variants share one Smart EXP3 kernel group with
        # per-row mechanism flags.  The run is killed after a checkpoint
        # taken while that mixed group is live; the restored rows, flags
        # included, finish byte-identical to the event oracle.
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=12, horizon_slots=40
        )
        variants = (
            "block_exp3",
            "hybrid_block_exp3",
            "smart_exp3_no_reset",
            "smart_exp3",
        )
        for index, spec in enumerate(scenario.device_specs):
            spec.policy = variants[index % len(variants)]
        reference = run_simulation(scenario, seed=5, backend="event")
        executor = durable_executor(
            tmp_path,
            fault_plan=FaultPlan((KillWorker(worker=0, slot=23),)),
        )
        assert_results_identical(reference, executor.execute(scenario, seed=5))
        found = latest_checkpoint(tmp_path / "ckpt")
        manifest = json.loads((found / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        engine, _ = pickle.loads((found / shard_file_name(0)).read_bytes())
        (kernel,) = engine.membership.kernels_by_key.values()
        assert isinstance(kernel, SmartEXP3Kernel) and kernel.size == 4
        assert kernel.reset_on.tolist() == [False, False, False, True]
        assert kernel.switchback_on.tolist() == [False, False, True, True]

    def test_one_shard_fallback_checkpoints_and_resumes(self, tmp_path):
        # A gain model the all-reduce cannot split runs as one shard on the
        # same engine: it checkpoints, a killed attempt resumes
        # byte-identical, and the fallback is on record in the stream.
        scenario = replace(
            setting1_scenario(
                policy="smart_exp3", num_devices=9, horizon_slots=40
            ),
            gain_model=NoisyShareModel(
                rate_noise_std=0.2, share_concentration=5.0
            ),
        )
        reference = run_simulation(scenario, seed=5, backend="event")
        executor = durable_executor(
            tmp_path,
            shards=2,
            fault_plan=FaultPlan((KillWorker(worker=0, slot=23),)),
        )
        set_telemetry_dir(tmp_path / "telemetry")
        try:
            resumed = executor.execute(scenario, seed=5)
        finally:
            set_telemetry_dir(None)
        assert_results_identical(reference, resumed)
        events = read_events(tmp_path / "telemetry")
        fallbacks = [e for e in events if e["type"] == "one_shard_fallback"]
        assert [(e["gain_model"], e["shards"]) for e in fallbacks] == [
            ("NoisyShareModel", 2)
        ]
        assert any(e["type"] == "worker_restart" for e in events)
        assert latest_checkpoint(tmp_path / "ckpt") is not None

    def test_repeated_kills_until_budget_exhausted(self, tmp_path):
        scenario = setting1_scenario(num_devices=6, horizon_slots=30)
        # A kill on every attempt: supervision retries max_restarts times,
        # then surfaces every attempt's diagnostics.
        faults = tuple(
            KillWorker(worker=0, slot=9, attempt=attempt)
            for attempt in range(10)
        )
        executor = durable_executor(
            tmp_path, fault_plan=FaultPlan(faults)
        )
        with pytest.raises(ShardFailureError) as excinfo:
            executor.execute(scenario, seed=2)
        assert len(excinfo.value.attempts) == FAST.max_restarts + 1
        assert "InjectedFault" in str(excinfo.value)

    def test_no_checkpoint_means_no_restart(self, tmp_path):
        scenario = setting1_scenario(num_devices=6, horizon_slots=30)
        executor = ShardedSlotExecutor(
            shards=3,
            supervision=FAST,
            fault_plan=FaultPlan((KillWorker(worker=0, slot=9),)),
        )
        with pytest.raises(ShardFailureError, match="no checkpointing"):
            executor.execute(scenario, seed=2)


def _has_slot_drawing_rows(scenario) -> bool:
    """Whether some device runs EXP3 or Full Information, whose uniforms
    the engine draws ahead in windows."""
    return any(
        spec.policy in ("exp3", "full_information") for spec in scenario.device_specs
    )


class TestGeneratedKillResume:
    """Kill-and-resume at a drawn slot, point, shard count and cadence."""

    @settings(
        deadline=None,
        derandomize=True,
        max_examples=12,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
        ],
    )
    @given(
        scenario=dynamic_scenarios().filter(_has_slot_drawing_rows),
        shards=st.integers(1, 4),
        every=st.integers(2, 10),
        point=st.sampled_from(("begin", "mid", "end")),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    def test_resumed_run_equals_event(
        self, scenario, shards, every, point, seed, data
    ):
        # Checkpoints land mid-churn, with EXP3 / Full Information rows live:
        # a snapshot must hold no draw block (windows end at the barriers),
        # and the restored engines draw their next windows afresh.
        kill_slot = data.draw(st.integers(1, scenario.horizon_slots))
        reference = run_simulation(scenario, seed=seed, backend="event")
        snapshots = []
        getstate = ShardEngine.__getstate__

        def recorded(engine):
            state = getstate(engine)
            snapshots.append(state)
            return state

        with tempfile.TemporaryDirectory() as directory, mock.patch.object(
            ShardEngine, "__getstate__", recorded
        ):
            executor = ShardedSlotExecutor(
                shards=min(shards, scenario.num_devices),
                checkpoint=CheckpointConfig(every_slots=every, dir=directory),
                supervision=FAST,
                fault_plan=FaultPlan(
                    (KillWorker(worker=0, slot=kill_slot, point=point),)
                ),
            )
            resumed = executor.execute(scenario, seed)
        assert_results_identical(reference, resumed)
        for name in ("choices_2d", "rates_2d", "delays_2d", "switches_2d", "active_2d"):
            assert getattr(resumed, name).tobytes() == getattr(reference, name).tobytes()
        assert all("_draws" not in state for state in snapshots)
        assert len(snapshots) >= (kill_slot - 1) // every


class TestExplicitResume:
    def test_resume_from_continues_bit_exact(self, tmp_path):
        scenario = setting1_scenario(
            policy="smart_exp3", num_devices=9, horizon_slots=40
        )
        reference = ShardedSlotExecutor(shards=3).execute(scenario, seed=5)
        # First invocation dies for good (restarts disabled) after having
        # committed checkpoints at slots 7, 14 and 21.
        dying = durable_executor(
            tmp_path,
            supervision=SupervisionConfig(max_restarts=0, backoff_s=0.01),
            fault_plan=FaultPlan((KillWorker(worker=0, slot=23),)),
        )
        with pytest.raises(ShardFailureError):
            dying.execute(scenario, seed=5)
        assert latest_checkpoint(tmp_path / "ckpt") is not None
        # Second invocation resumes explicitly and completes.
        resumed = ShardedSlotExecutor(
            shards=3, resume_from=tmp_path / "ckpt"
        ).execute(scenario, seed=5)
        assert_results_identical(reference, resumed)

    def test_resumed_attempt_reports_its_own_throughput(
        self, tmp_path, monkeypatch
    ):
        # Checkpoints at slots 10, 20 and 30, killed at 33: the resumed
        # attempt starts at slot 31 and runs 10 of the 40 slots, and its
        # profile and rate count those 10.
        scenario = setting1_scenario(policy="exp3", num_devices=9, horizon_slots=40)
        dying = durable_executor(
            tmp_path,
            every=10,
            supervision=SupervisionConfig(max_restarts=0, backoff_s=0.01),
            fault_plan=FaultPlan((KillWorker(worker=0, slot=33),)),
        )
        with pytest.raises(ShardFailureError):
            dying.execute(scenario, seed=5)
        profile = tmp_path / "profile.jsonl"
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_PATH", str(profile))
        set_telemetry_dir(tmp_path / "telemetry")
        try:
            ShardedSlotExecutor(
                shards=3, resume_from=tmp_path / "ckpt"
            ).execute(scenario, seed=5)
        finally:
            set_telemetry_dir(None)
        (line,) = profile.read_text().splitlines()
        assert json.loads(line)["slots"] == 10
        events = read_events(tmp_path / "telemetry")
        (start,) = [e for e in events if e["type"] == "worker_start"]
        (end,) = [e for e in events if e["type"] == "worker_end"]
        assert (start["start_slot"], end["slots"]) == (31, 40)
        assert end["device_slots_per_second"] == pytest.approx(
            9 * 10 / end["seconds"], rel=1e-3
        )

    def test_resume_under_different_worker_count(self, tmp_path):
        scenario = setting1_scenario(policy="exp3", num_devices=8, horizon_slots=40)
        reference = ShardedSlotExecutor(shards=4).execute(scenario, seed=9)
        dying = durable_executor(
            tmp_path,
            shards=4,
            supervision=SupervisionConfig(max_restarts=0, backoff_s=0.01),
            fault_plan=FaultPlan((KillWorker(worker=0, slot=20),)),
        )
        with pytest.raises(ShardFailureError):
            dying.execute(scenario, seed=9)
        # Checkpointed under workers=1, resumed under workers=2: shard files
        # are per shard, so the worker count is free to change.
        resumed = ShardedSlotExecutor(
            shards=4,
            workers=2,
            supervision=FAST,
            resume_from=tmp_path / "ckpt",
        ).execute(scenario, seed=9)
        assert_results_identical(reference, resumed)

    def test_missing_checkpoint_refused(self, tmp_path):
        scenario = setting1_scenario(num_devices=6, horizon_slots=20)
        executor = ShardedSlotExecutor(
            shards=2, resume_from=tmp_path / "nothing-here"
        )
        with pytest.raises(CheckpointError, match="no committed checkpoint"):
            executor.execute(scenario, seed=1)


class TestMultiprocess:
    def test_hard_kill_recovers_bit_exact(self, tmp_path):
        scenario = setting1_scenario(policy="exp3", num_devices=8, horizon_slots=40)
        reference = ShardedSlotExecutor(shards=4).execute(scenario, seed=7)
        executor = durable_executor(
            tmp_path,
            shards=4,
            workers=2,
            fault_plan=FaultPlan(
                (KillWorker(worker=1, slot=20, hard=True),)
            ),
        )
        assert_results_identical(reference, executor.execute(scenario, seed=7))

    def test_soft_kill_reducer_payload_byte_identical(self, tmp_path):
        scenario = setting1_scenario(policy="exp3", num_devices=8, horizon_slots=40)
        reducer = SummaryReducer()
        reference = ShardedSlotExecutor(shards=4, window_slots=16).map_reduced(
            scenario, 7, reducer
        )
        executor = durable_executor(
            tmp_path,
            shards=4,
            workers=2,
            window_slots=16,
            fault_plan=FaultPlan((KillWorker(worker=0, slot=16),)),
        )
        resumed = executor.map_reduced(scenario, 7, reducer)
        assert pickle.dumps(reference) == pickle.dumps(resumed)

    def test_hung_worker_surfaces_diagnostics(self):
        scenario = setting1_scenario(num_devices=8, horizon_slots=30)
        # Worker 0 stalls 10s before slot 5's occupancy exchange; peers time
        # out after 1s and name who arrived and where the straggler was last
        # seen — the run fails loudly instead of hanging forever.
        executor = ShardedSlotExecutor(
            shards=4,
            workers=2,
            supervision=SupervisionConfig(
                barrier_timeout_s=1.0, backoff_s=0.01, poll_interval_s=0.2
            ),
            fault_plan=FaultPlan(
                (DelayExchange(worker=0, slot=5, seconds=10.0),)
            ),
        )
        with pytest.raises(ShardFailureError) as excinfo:
            executor.execute(scenario, seed=7)
        text = str(excinfo.value)
        assert "barrier wait broken or timed out" in text
        assert "slot 5" in text

    def test_bus_timeout_carries_arrivals(self):
        # The same stall surfaces BusTimeoutError fields through the
        # supervision record (worker diagnostics carry the traceback text).
        scenario = setting1_scenario(num_devices=8, horizon_slots=30)
        executor = ShardedSlotExecutor(
            shards=4,
            workers=2,
            supervision=SupervisionConfig(
                barrier_timeout_s=1.0, backoff_s=0.01, poll_interval_s=0.2
            ),
            fault_plan=FaultPlan(
                (DelayExchange(worker=1, slot=4, seconds=10.0),)
            ),
        )
        with pytest.raises(ShardFailureError) as excinfo:
            executor.execute(scenario, seed=7)
        record = excinfo.value.attempts[0]
        assert "BusTimeoutError" in record["error"] or "worker" in record["error"]


class TestCorruptionAndMismatch:
    def test_corrupted_checkpoint_refused(self, tmp_path):
        scenario = setting1_scenario(num_devices=6, horizon_slots=30)
        dying = durable_executor(
            tmp_path,
            supervision=SupervisionConfig(max_restarts=0, backoff_s=0.01),
            fault_plan=FaultPlan(
                (
                    CorruptCheckpoint(slot=14, shard=1),
                    KillWorker(worker=0, slot=16),
                )
            ),
        )
        with pytest.raises(ShardFailureError):
            dying.execute(scenario, seed=3)
        executor = ShardedSlotExecutor(
            shards=3, resume_from=tmp_path / "ckpt"
        )
        with pytest.raises(CheckpointError, match="corrupt"):
            executor.execute(scenario, seed=3)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        scenario = setting1_scenario(num_devices=6, horizon_slots=30)
        durable_executor(tmp_path).execute(scenario, seed=3)
        executor = ShardedSlotExecutor(
            shards=3, resume_from=tmp_path / "ckpt"
        )
        # Same scenario, different seed: the derived RNG streams differ, so
        # resuming would not be bit-exact — refused, naming the fields.
        with pytest.raises(CheckpointError, match="environment_seed"):
            executor.execute(scenario, seed=4)
        # Different shard count: shard files would not line up.
        with pytest.raises(CheckpointError, match="shards"):
            ShardedSlotExecutor(
                shards=2, resume_from=tmp_path / "ckpt"
            ).execute(scenario, seed=3)

    @pytest.mark.parametrize(
        "change",
        (
            lambda scenario: replace(
                scenario,
                device_specs=[
                    replace(spec, policy_kwargs={"gamma": 0.5})
                    for spec in scenario.device_specs
                ],
            ),
            lambda scenario: replace(scenario, slot_duration_s=5.0),
            lambda scenario: replace(
                scenario,
                delay_model=EmpiricalDelayModel(wifi_loc=5.0, cellular_loc=7.0),
            ),
            lambda scenario: replace(
                scenario,
                device_specs=[
                    *scenario.device_specs[:-1],
                    replace(scenario.device_specs[-1], policy_kwargs={"gamma": 0.5}),
                ],
            ),
            lambda scenario: replace(
                scenario, device_specs=scenario.device_specs[::-1]
            ),
        ),
        ids=(
            "policy_kwargs",
            "slot_duration",
            "delay_parameters",
            "last_shard",
            "reordered",
        ),
    )
    def test_changed_scenario_refused(self, tmp_path, change):
        # Any scenario field that changes a result changes the
        # fingerprint, not only the ones a hand-picked digest names, in
        # whichever shard it lands; so does the device order, which picks
        # each device's policy seed although every shard sorts its specs.
        scenario = setting1_scenario(policy="exp3", num_devices=6, horizon_slots=40)
        ShardedSlotExecutor(
            shards=2,
            checkpoint=CheckpointConfig(every_slots=10, dir=tmp_path / "ckpt"),
        ).execute(scenario, seed=3)
        with pytest.raises(CheckpointError, match="scenario_digest"):
            ShardedSlotExecutor(
                shards=2, resume_from=tmp_path / "ckpt"
            ).execute(change(scenario), seed=3)

    def test_format_version_mismatch_refused(self, tmp_path):
        # A later version and the previous one are both refused.
        scenario = setting1_scenario(num_devices=6, horizon_slots=30)
        durable_executor(tmp_path).execute(scenario, seed=3)
        found = latest_checkpoint(tmp_path / "ckpt")
        manifest = json.loads((found / MANIFEST_NAME).read_text())
        assert CHECKPOINT_FORMAT_VERSION == 9
        for version in (999, CHECKPOINT_FORMAT_VERSION - 1):
            manifest["format_version"] = version
            (found / MANIFEST_NAME).write_text(json.dumps(manifest))
            with pytest.raises(CheckpointError, match="format version"):
                ShardedSlotExecutor(
                    shards=3, resume_from=tmp_path / "ckpt"
                ).execute(scenario, seed=3)

    def test_uncommitted_checkpoint_invisible(self, tmp_path):
        (tmp_path / "ckpt" / "ckpt_00000010").mkdir(parents=True)
        (tmp_path / "ckpt" / "ckpt_00000010" / "shard_0000.pkl").write_bytes(
            b"partial"
        )
        assert latest_checkpoint(tmp_path / "ckpt") is None

    def test_prune_keeps_newest(self, tmp_path):
        scenario = setting1_scenario(num_devices=6, horizon_slots=40)
        durable_executor(tmp_path, every=5).execute(scenario, seed=3)
        committed = sorted((tmp_path / "ckpt").glob("ckpt_*"))
        # keep=2 (default): only the two newest commits survive, and the
        # final-slot checkpoint is among them.
        assert [entry.name for entry in committed] == [
            "ckpt_00000035",
            "ckpt_00000040",
        ]

