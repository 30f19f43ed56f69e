"""Telemetry layer: metrics, event schema, instrumentation, monitor CLI.

The acceptance test at the bottom mirrors the ISSUE criterion: a sharded
fault-injection run (hard-killed worker) must leave a merged event log from
which ``python -m repro.telemetry report`` reconstructs per-shard progress,
barrier waits, the injected fault and the supervised restart.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pytest

from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import setting1_scenario
from repro.telemetry import (
    BARRIER_WAIT_BOUNDS_S,
    EventLog,
    Histogram,
    SCHEMA_VERSION,
    SchemaError,
    TELEMETRY_DIR_ENV,
    get_telemetry,
    merge_histogram_payloads,
    read_events,
    scoped_telemetry_dir,
    set_telemetry_dir,
    take_run_summary,
    telemetry_enabled,
    validate_directory,
    validate_event,
)
from repro.telemetry.__main__ import build_report, main as telemetry_main


def types_of(events):
    return [event["type"] for event in events]


# --------------------------------------------------------------- primitives


class TestMetrics:
    def test_histogram_buckets_and_overflow(self):
        hist = Histogram(bounds=(0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 2.0, 30.0):
            hist.observe(value)
        # bucket 0: <= 0.1 (bounds are inclusive upper bounds),
        # bucket 1: <= 1.0, bucket 2: overflow
        assert hist.counts == [2, 1, 2]
        assert hist.count == 5
        assert hist.max == 30.0
        payload = hist.payload()
        assert payload["bounds"] == [0.1, 1.0]
        assert payload["mean"] == pytest.approx(32.65 / 5, abs=1e-6)

    def test_histogram_default_bounds(self):
        hist = Histogram()
        assert hist.bounds == BARRIER_WAIT_BOUNDS_S
        assert len(hist.counts) == len(BARRIER_WAIT_BOUNDS_S) + 1

    def test_merge_histogram_payloads(self):
        a = Histogram(bounds=(1.0,))
        b = Histogram(bounds=(1.0,))
        a.observe(0.5)
        b.observe(2.0)
        b.observe(0.25)
        merged = merge_histogram_payloads([a.payload(), b.payload()])
        assert merged["counts"] == [2, 1]
        assert merged["count"] == 3
        assert merged["max"] == 2.0
        # incompatible bounds are skipped, not mangled
        c = Histogram(bounds=(9.0,))
        c.observe(1.0)
        merged = merge_histogram_payloads([a.payload(), c.payload()])
        assert merged["count"] == 1
        assert merge_histogram_payloads([]) is None


# ------------------------------------------------------------ schema + log


class TestEventSchema:
    def envelope(self, **overrides):
        event = {
            "v": SCHEMA_VERSION,
            "ts": 1.0,
            "pid": 1,
            "proc": "p",
            "seq": 0,
            "type": "registry",
            "op": "hit",
        }
        event.update(overrides)
        return event

    def test_valid_event_passes(self):
        validate_event(self.envelope())

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError, match="unknown event type"):
            validate_event(self.envelope(type="nonsense"))

    def test_missing_required_field_rejected(self):
        event = self.envelope(type="run_start", devices=3, slots=5)
        # missing "tag"
        with pytest.raises(SchemaError, match="tag"):
            validate_event(event)

    def test_wrong_version_rejected(self):
        with pytest.raises(SchemaError, match="schema version"):
            validate_event(self.envelope(v=SCHEMA_VERSION + 1))

    def test_extra_fields_allowed(self):
        validate_event(self.envelope(anything_else=1))

    def test_emit_validates(self, tmp_path):
        log = EventLog(tmp_path, "t")
        with pytest.raises(SchemaError):
            log.emit("run_start", tag="x")  # missing devices/slots
        event = log.emit("run_start", tag="x", devices=1, slots=2)
        assert event["seq"] == 0
        assert log.emit("run_end", tag="x", seconds=0.1)["seq"] == 1
        log.close()

    def test_emit_coerces_numpy_scalars(self, tmp_path):
        log = EventLog(tmp_path, "t")
        log.emit(
            "run_start",
            tag="x",
            devices=np.int64(3),
            slots=np.float32(2.0),
        )
        log.close()
        (event,) = read_events(tmp_path)
        assert event["devices"] == 3
        assert isinstance(event["devices"], int)

    def test_reader_merges_by_timestamp(self, tmp_path):
        for name, stamps in (("events-1.jsonl", (3.0, 5.0)),
                             ("events-2.jsonl", (4.0,))):
            with open(tmp_path / name, "w") as handle:
                for index, ts in enumerate(stamps):
                    handle.write(json.dumps({
                        "v": SCHEMA_VERSION, "ts": ts, "pid": 0, "proc": name,
                        "seq": index, "type": "registry", "op": "hit",
                    }) + "\n")
        events = read_events(tmp_path)
        assert [event["ts"] for event in events] == [3.0, 4.0, 5.0]

    def test_validate_directory_reports_bad_lines(self, tmp_path):
        (tmp_path / "events-9.jsonl").write_text("not json\n")
        errors = validate_directory(tmp_path)
        assert len(errors) == 1 and "events-9.jsonl:1" in errors[0]
        assert validate_directory(tmp_path / "missing") == []


# ------------------------------------------------------- enable/disable gate


class TestGate:
    def test_disabled_is_none(self):
        assert not telemetry_enabled()
        assert get_telemetry() is None

    def test_disabled_run_writes_nothing(self, tmp_path, tiny_setting1):
        run_simulation(tiny_setting1, seed=1, backend="vectorized")
        assert list(tmp_path.iterdir()) == []

    def test_profile_run_none_when_both_off(self):
        from repro.profiling import profile_run

        assert profile_run("x") is None

    def test_set_telemetry_dir_round_trip(self, tmp_path):
        set_telemetry_dir(tmp_path)
        assert telemetry_enabled()
        telemetry = get_telemetry()
        assert telemetry is not None
        assert get_telemetry() is telemetry  # cached per (pid, dir)
        set_telemetry_dir(None)
        assert get_telemetry() is None

    def test_a_replaced_instance_closes_its_event_log(self, tmp_path):
        set_telemetry_dir(tmp_path / "a")
        first = get_telemetry()
        first.event("run_many_end", runs=1, seconds=0.0)
        assert first.log._handle is not None
        set_telemetry_dir(tmp_path / "b")
        assert first.log._handle is None

        second = get_telemetry()
        second.event("run_many_end", runs=1, seconds=0.0)
        with scoped_telemetry_dir(tmp_path / "c"):
            assert second.log._handle is None
            scoped = get_telemetry()
            scoped.event("run_many_end", runs=1, seconds=0.0)
        assert scoped.log._handle is None
        set_telemetry_dir(None)


# -------------------------------------------------------- instrumented runs


class TestInstrumentation:
    def test_vectorized_run_events(self, tmp_path, tiny_setting1):
        set_telemetry_dir(tmp_path)
        run_simulation(tiny_setting1, seed=1, backend="vectorized")
        set_telemetry_dir(None)
        assert validate_directory(tmp_path) == []
        events = read_events(tmp_path)
        kinds = types_of(events)
        assert kinds[0] == "run_start"
        assert "phase_profile" in kinds
        assert kinds[-1] == "run_end"
        start = events[0]
        assert start["devices"] == 6 and start["slots"] == 80
        profile = next(e for e in events if e["type"] == "phase_profile")
        assert "numpy_version" in profile["provenance"]
        assert 0.99 <= sum(profile["share"].values()) <= 1.01

    def test_sharded_serial_run_events(self, tmp_path, tiny_setting1):
        from repro.sim.sharded.executor import ShardedSlotExecutor

        set_telemetry_dir(tmp_path)
        ShardedSlotExecutor(shards=3, workers=1).execute(tiny_setting1, seed=2)
        set_telemetry_dir(None)
        assert validate_directory(tmp_path) == []
        kinds = set(types_of(read_events(tmp_path)))
        assert {"run_start", "worker_start", "worker_end", "run_end"} <= kinds

    def test_run_many_brackets(self, tmp_path, tiny_setting1):
        set_telemetry_dir(tmp_path)
        run_many(tiny_setting1, 2, base_seed=0, backend="vectorized",
                 reduce="summary")
        set_telemetry_dir(None)
        kinds = types_of(read_events(tmp_path))
        assert kinds[0] == "run_many_start"
        assert kinds[-1] == "run_many_end"
        assert kinds.count("run_start") == 2

    def test_event_backend_runs_report_progress(self, tmp_path, tiny_setting1):
        # Every backend's runs write run_start/run_end, so `tail --follow`
        # shows event-backend experiments progressing too.
        set_telemetry_dir(tmp_path)
        run_many(tiny_setting1, 3, backend="event", reduce="summary")
        set_telemetry_dir(None)
        assert validate_directory(tmp_path) == []
        events = read_events(tmp_path)
        ends = [e for e in events if e["type"] == "run_end"]
        assert len(ends) == 3
        assert {e["tag"] for e in ends} == {"event"}
        starts = [e for e in events if e["type"] == "run_start"]
        assert [e["seed"] for e in starts] == [e["seed"] for e in ends] == [0, 1, 2]
        assert starts[0]["devices"] == 6 and starts[0]["slots"] == 80

    def test_registry_events_and_meta_summary(self, tmp_path, tiny_setting1):
        from repro.registry.store import CacheSpec, RunStore

        store = RunStore(tmp_path / "cache")
        set_telemetry_dir(tmp_path / "tele")
        run_many(tiny_setting1, 1, base_seed=3, backend="vectorized",
                 reduce="summary", cache=CacheSpec("reuse", store))
        run_many(tiny_setting1, 1, base_seed=3, backend="vectorized",
                 reduce="summary", cache=CacheSpec("reuse", store))
        set_telemetry_dir(None)
        registry_ops = [
            event["op"]
            for event in read_events(tmp_path / "tele")
            if event["type"] == "registry"
        ]
        assert registry_ops == ["miss", "store", "hit"]
        # the committed meta.json carries the run's phase summary
        ((fingerprint, meta, _),) = list(store.entries())
        assert meta["telemetry"]["tag"] == "vectorized"
        assert "seconds" in meta["telemetry"]

    def test_megascale_threads_telemetry_dir(self, tmp_path):
        from repro.experiments import megascale

        payload = megascale.run(
            num_devices=60,
            horizon_slots=40,
            shards=2,
            workers=1,
            heartbeat_seconds=None,
            telemetry_dir=str(tmp_path),
        )
        set_telemetry_dir(None)
        assert payload["execution"]["telemetry_dir"] == str(tmp_path)
        assert validate_directory(tmp_path) == []
        assert "worker_end" in types_of(read_events(tmp_path))

    def test_megascale_restores_the_callers_telemetry_dir(self, tmp_path):
        from repro.experiments import megascale

        mine = tmp_path / "mine"
        set_telemetry_dir(mine)
        megascale.run(
            num_devices=20,
            horizon_slots=20,
            shards=1,
            workers=1,
            heartbeat_seconds=None,
            telemetry_dir=str(tmp_path / "megascale"),
        )
        assert os.environ[TELEMETRY_DIR_ENV] == str(mine)
        assert not mine.exists()
        set_telemetry_dir(None)
        megascale.run(
            num_devices=20,
            horizon_slots=20,
            shards=1,
            workers=1,
            heartbeat_seconds=None,
            telemetry_dir=str(tmp_path / "megascale"),
        )
        assert TELEMETRY_DIR_ENV not in os.environ

    def test_fused_window_truncation_reasons(self, tmp_path):
        # Draw windows need a kernel that draws one uniform per row per
        # slot (exp3; smart_exp3's draws depend on its block starts).
        scenario = setting1_scenario(
            policy="exp3", num_devices=6, horizon_slots=80
        )
        set_telemetry_dir(tmp_path)
        run_simulation(scenario, seed=1, backend="vectorized")
        set_telemetry_dir(None)
        events = [e for e in read_events(tmp_path)
                  if e["type"] == "fused_windows"]
        assert events, "kernel-capable scenario should fuse windows"
        reasons = events[0]["reasons"]
        assert events[0]["windows"] == sum(reasons.values())
        assert set(reasons) <= {
            "horizon", "topology_event", "checkpoint_barrier", "draw_budget",
        }

    def test_run_summary_relay_consumed_once(self, tmp_path, tiny_setting1):
        set_telemetry_dir(tmp_path)
        run_simulation(tiny_setting1, seed=1, backend="vectorized")
        set_telemetry_dir(None)
        summary = take_run_summary()
        assert summary is not None and summary["tag"] == "vectorized"
        assert take_run_summary() is None


# ------------------------------------------------------------- monitor CLI


class TestMonitorCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = telemetry_main(list(argv), out=out)
        return code, out.getvalue()

    def test_no_directory_is_usage_error(self):
        code, text = self.run_cli("summary")
        assert code == 2 and "REPRO_TELEMETRY_DIR" in text

    def test_summary_empty_directory(self, tmp_path):
        code, text = self.run_cli("--dir", str(tmp_path), "summary")
        assert code == 1 and "no events" in text

    def test_summary_schema_error(self, tmp_path):
        (tmp_path / "events-3.jsonl").write_text('{"v": 99}\n')
        code, text = self.run_cli("--dir", str(tmp_path), "summary")
        assert code == 2

    def test_summary_and_report_on_real_run(self, tmp_path, tiny_setting1):
        set_telemetry_dir(tmp_path)
        run_simulation(tiny_setting1, seed=1, backend="vectorized")
        set_telemetry_dir(None)
        code, text = self.run_cli("--dir", str(tmp_path), "summary")
        assert code == 0 and "run_start" in text
        code, text = self.run_cli("--dir", str(tmp_path), "report")
        assert code == 0 and "phase shares" in text
        code, text = self.run_cli("--dir", str(tmp_path), "report", "--json")
        assert code == 0
        assert json.loads(text)["events"] == len(read_events(tmp_path))

    def test_report_counts_execution_paths(self, tmp_path, tiny_setting1):
        from dataclasses import replace

        from repro.game.gain import NoisyShareModel

        set_telemetry_dir(tmp_path)
        noisy = replace(tiny_setting1, gain_model=NoisyShareModel())
        run_many(noisy, 1, backend="sharded", shards=2)
        run_many(tiny_setting1, 2, backend="vectorized", reduce="summary")
        run_many(tiny_setting1, 1, backend="event", reduce="summary")
        set_telemetry_dir(None)
        code, text = self.run_cli("--dir", str(tmp_path), "report")
        assert code == 0 and "execution paths:" in text
        assert "one_shard_fallback" in text and "NoisyShareModel: 1" in text
        code, text = self.run_cli("--dir", str(tmp_path), "report", "--json")
        assert json.loads(text)["execution_paths"] == {
            "one_shard_fallback": {"NoisyShareModel": 1},
            "run_solo": {"backend": 2},
            "run_stack": {"rows": 12, "runs": 2, "stacks": 1},
        }

    def test_tail_prints_events(self, tmp_path, tiny_setting1):
        set_telemetry_dir(tmp_path)
        run_simulation(tiny_setting1, seed=1, backend="vectorized")
        set_telemetry_dir(None)
        code, text = self.run_cli("--dir", str(tmp_path), "tail", "-n", "2")
        assert code == 0
        assert len(text.strip().splitlines()) == 2
        assert "run_end" in text


# ------------------------------------------------- acceptance: fault report


class TestFaultReport:
    def test_killed_worker_restart_appears_in_report(self, tmp_path):
        """ISSUE acceptance: kill a worker, find the restart in the report."""
        from repro.sim.sharded.checkpoint import CheckpointConfig
        from repro.sim.sharded.executor import ShardedSlotExecutor
        from repro.sim.sharded.faults import (
            FaultPlan,
            KillWorker,
            SupervisionConfig,
        )

        tele_dir = tmp_path / "tele"
        scenario = setting1_scenario(
            policy="exp3", num_devices=8, horizon_slots=40
        )
        set_telemetry_dir(tele_dir)
        executor = ShardedSlotExecutor(
            shards=4,
            workers=2,
            checkpoint=CheckpointConfig(dir=tmp_path / "ckpt", every_slots=7),
            supervision=SupervisionConfig(
                barrier_timeout_s=60.0, backoff_s=0.01, poll_interval_s=0.2
            ),
            fault_plan=FaultPlan((KillWorker(worker=1, slot=20, hard=True),)),
            heartbeat_seconds=0.0,
        )
        result = executor.execute(scenario, seed=7)
        set_telemetry_dir(None)

        # The run recovered and stayed bit-exact against the serial driver.
        baseline = ShardedSlotExecutor(shards=4, workers=1).execute(
            scenario, seed=7
        )
        assert np.array_equal(result.choices_2d, baseline.choices_2d)

        # The merged log validates and the report reconstructs the story.
        assert validate_directory(tele_dir) == []
        events = read_events(tele_dir)
        report = build_report(events)
        assert report["restarts"], "supervised restart must appear"
        assert report["restarts"][0]["attempt"] == 0
        assert report["faults"] == [
            {"kind": "kill_worker", "worker": 1, "slot": 20}
        ]
        assert report["checkpoints"]["commits"] >= 1
        assert report["barrier_wait"] is not None
        assert report["barrier_wait"]["count"] > 0
        # per-shard progress: both workers reached the end of the horizon
        done = [w for w in report["workers"].values() if w["done"]]
        assert len(done) >= 2
        assert all(w["slot"] == 40 for w in done)
        assert report["phase_share"]  # phase shares aggregated

        # ... and the CLI renders it with exit 0.
        out = io.StringIO()
        assert telemetry_main(["--dir", str(tele_dir), "report"], out=out) == 0
        text = out.getvalue()
        assert "worker restarts" in text
        assert "kill_worker" in text
