"""Run-registry suite: fingerprint canonicalization, store integrity,
skip-if-cached ``run_many`` and incremental sweeps.

The invariants pinned here are the registry's contract:

* the cell fingerprint covers exactly the result-determining configuration
  — identical across ``backend``/``workers``/``shards``/checkpoint
  settings and dict-ordering permutations, different for any
  result-affecting change (seed, horizon, gain model, recording options,
  reducer parameters);
* a cache hit returns value-bit-identical reducer output to a cold run;
* a partially warm store recomputes only the missing (config × seed) cells;
* corrupt/stale/foreign entries are refused loudly (:class:`CacheError`),
  with ``cache="refresh"`` as the recompute escape hatch.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import pytest

from repro.analysis.reducers import StabilityReducer, SummaryReducer
from repro.experiments.common import ExperimentConfig, run_scenario
from repro.game.device import Device
from repro.game.gain import NoisyShareModel
from repro.registry import (
    CACHE_ENV_VAR,
    CacheError,
    CacheSpec,
    MISS,
    RunStore,
    cell_key,
    default_cache_root,
    grid_keys,
    resolve_cache,
)
from repro.registry.__main__ import main as registry_cli
from repro.registry.store import META_NAME, PAYLOAD_NAME
from repro.registry.sweep import SweepCase, expand_grid, run_sweep
from repro.sim.runner import run_many
from repro.sim.scenario import DeviceSpec, setting1_scenario


def _key(scenario, reducer=None, **overrides):
    options = {
        "base_seed": 0,
        "run_index": 0,
        "record_probabilities": False,
        "reducer": reducer if reducer is not None else SummaryReducer(),
    }
    options.update(overrides)
    return cell_key(scenario, **options)


def _canonical(output) -> str:
    """Value-level byte identity (floats print shortest round-trip repr)."""
    return json.dumps(list(output.rows), sort_keys=True)


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs")


@pytest.fixture
def spec(store):
    return CacheSpec(mode="reuse", store=store)


class TestFingerprint:
    def test_stable_across_rebuilds(self, tiny_setting1):
        rebuilt = setting1_scenario(
            policy="smart_exp3", num_devices=6, horizon_slots=80
        )
        assert _key(tiny_setting1).fingerprint == _key(rebuilt).fingerprint

    def test_dict_ordering_permutations_hash_identically(self, tiny_setting1):
        def with_kwargs(scenario, kwargs):
            specs = [
                DeviceSpec(
                    device=s.device, policy=s.policy, policy_kwargs=dict(kwargs)
                )
                for s in scenario.device_specs
            ]
            return replace(scenario, device_specs=specs)

        forward = with_kwargs(tiny_setting1, {"gamma": 0.1, "horizon": 80})
        backward = with_kwargs(tiny_setting1, {"horizon": 80, "gamma": 0.1})
        assert list(forward.device_specs[0].policy_kwargs) != list(
            backward.device_specs[0].policy_kwargs
        )
        assert _key(forward).fingerprint == _key(backward).fingerprint

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: (s, {"run_index": 1}),
            lambda s: (s, {"base_seed": 7}),
            lambda s: (s, {"record_probabilities": True}),
            lambda s: (s, {"reducer": StabilityReducer(threshold=0.25)}),
            lambda s: (s.with_horizon(120), {}),
            lambda s: (replace(s, gain_model=NoisyShareModel()), {}),
            lambda s: (
                replace(
                    s,
                    device_specs=s.device_specs
                    + [DeviceSpec(device=Device(device_id=99), policy="greedy")],
                ),
                {},
            ),
        ],
        ids=[
            "run_index",
            "base_seed",
            "record_probabilities",
            "reducer_params",
            "horizon",
            "gain_model",
            "devices",
        ],
    )
    def test_result_affecting_changes_change_hash(self, tiny_setting1, mutate):
        scenario, overrides = mutate(tiny_setting1)
        assert (
            _key(scenario, **overrides).fingerprint
            != _key(tiny_setting1).fingerprint
        )

    def test_grid_keys_match_cell_keys(self, tiny_setting1):
        reducer = SummaryReducer()
        keys = grid_keys(
            tiny_setting1,
            base_seed=3,
            runs=4,
            record_probabilities=False,
            reducer=reducer,
        )
        assert len({key.fingerprint for key in keys}) == 4
        for index, key in enumerate(keys):
            single = _key(
                tiny_setting1, base_seed=3, run_index=index, reducer=reducer
            )
            assert key.fingerprint == single.fingerprint
            assert key.summary["seed_label"] == 3 + index


class TestStore:
    def test_roundtrip_and_miss(self, store, tiny_setting1):
        key = _key(tiny_setting1)
        assert store.load(key.fingerprint) is MISS
        payload = [{"seed": 0, "value": 1.5}]
        store.store(key, payload, wall_seconds=0.25)
        assert store.load(key.fingerprint) == payload
        meta = json.loads(
            (store.entry_dir(key.fingerprint) / META_NAME).read_text()
        )
        assert meta["wall_seconds"] == 0.25
        assert meta["summary"]["scenario"] == tiny_setting1.name
        assert meta["provenance"]["code_fingerprint"]

    def test_checksum_mismatch_refused_loudly(self, store, tiny_setting1):
        key = _key(tiny_setting1)
        store.store(key, [{"seed": 0}])
        payload_path = store.entry_dir(key.fingerprint) / PAYLOAD_NAME
        payload_path.write_bytes(payload_path.read_bytes() + b"\0")
        with pytest.raises(CacheError, match="checksum mismatch.*refresh"):
            store.load(key.fingerprint)

    def test_format_version_mismatch_refused(self, store, tiny_setting1):
        key = _key(tiny_setting1)
        store.store(key, [{"seed": 0}])
        meta_path = store.entry_dir(key.fingerprint) / META_NAME
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CacheError, match="store format"):
            store.load(key.fingerprint)

    def test_code_fingerprint_mismatch_refused(
        self, store, tiny_setting1, monkeypatch
    ):
        key = _key(tiny_setting1)
        store.store(key, [{"seed": 0}])
        monkeypatch.setattr(
            "repro.registry.store.code_fingerprint", lambda: "0" * 64
        )
        with pytest.raises(CacheError, match="result-affecting code"):
            store.load(key.fingerprint)

    def test_verify_and_gc(self, store, tiny_setting1):
        keys = grid_keys(
            tiny_setting1,
            base_seed=0,
            runs=3,
            record_probabilities=False,
            reducer=SummaryReducer(),
        )
        for key in keys:
            store.store(key, [{"seed": key.summary["seed_label"]}])
        ok, corrupt = store.verify()
        assert len(ok) == 3 and not corrupt

        victim = store.entry_dir(keys[0].fingerprint) / PAYLOAD_NAME
        victim.write_bytes(b"garbage")
        ok, corrupt = store.verify()
        assert len(ok) == 2 and len(corrupt) == 1
        assert corrupt[0][0] == keys[0].fingerprint

        assert not store.gc(dry_run=True, clear=True) == []  # previews all
        removed = store.gc(clear=True)
        assert len(removed) == 3
        assert list(store.entries()) == []

    def test_env_var_selects_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
        assert RunStore().root == tmp_path / "elsewhere"

    def test_resolve_cache_validates(self, store):
        assert resolve_cache(None).mode == "off"
        assert resolve_cache("reuse").mode == "reuse"
        assert resolve_cache(CacheSpec(mode="refresh", store=store)).mode == (
            "refresh"
        )
        with pytest.raises(ValueError, match="cache mode"):
            resolve_cache("always")
        with pytest.raises(TypeError):
            resolve_cache(42)


class TestCachedRunMany:
    def test_cache_requires_reduce(self, tiny_setting1, spec):
        with pytest.raises(ValueError, match="requires reduce="):
            run_many(tiny_setting1, 2, cache=spec)

    def test_warm_run_is_value_bit_identical_and_simulates_nothing(
        self, tiny_setting1, store, spec
    ):
        off = run_many(tiny_setting1, 3, reduce="summary")
        cold = run_many(tiny_setting1, 3, reduce="summary", cache=spec)
        assert store.stored == 3 and store.hits == 0
        warm = run_many(tiny_setting1, 3, reduce="summary", cache=spec)
        assert store.hits == 3 and store.stored == 3  # nothing recomputed
        assert _canonical(cold) == _canonical(off)
        assert _canonical(warm) == _canonical(off)

    def test_execution_knobs_share_the_cache(self, tiny_setting1, store, spec):
        """backend / workers / shards / checkpoint settings
        address the same cells — the equivalence suite guarantees
        they cannot change results."""
        baseline = run_many(
            tiny_setting1, 2, reduce="summary", backend="event", cache=spec
        )
        assert store.stored == 2
        variants = [
            dict(backend="vectorized", workers=2),
            dict(backend="vectorized"),
            dict(backend="sharded", shards=2),
        ]
        for knobs in variants:
            fresh = RunStore(store.root)
            warm = run_many(
                tiny_setting1,
                2,
                reduce="summary",
                cache=CacheSpec(mode="reuse", store=fresh),
                **knobs,
            )
            assert fresh.hits == 2 and fresh.misses == 0 and fresh.stored == 0
            assert _canonical(warm) == _canonical(baseline)

    @staticmethod
    def _check_partial_warm(scenario, store, spec, workers):
        cold = run_many(scenario, 4, reduce="summary", cache=spec)
        keys = grid_keys(
            scenario,
            base_seed=0,
            runs=4,
            record_probabilities=False,
            reducer=SummaryReducer(),
        )
        for key in keys[1:3]:
            assert store.delete(key.fingerprint)
        partial_store = RunStore(store.root)
        partial = run_many(
            scenario,
            4,
            reduce="summary",
            workers=workers,
            cache=CacheSpec(mode="reuse", store=partial_store),
        )
        assert partial_store.hits == 2
        assert partial_store.stored == 2  # exactly the deleted cells
        assert _canonical(partial) == _canonical(cold)

    def test_partial_warm_runs_only_missing_cells(self, tiny_setting1, store, spec):
        self._check_partial_warm(tiny_setting1, store, spec, workers=None)

    def test_partial_warm_pool_runs_only_missing_cells(
        self, tiny_setting1, store, spec
    ):
        self._check_partial_warm(tiny_setting1, store, spec, workers=2)

    @staticmethod
    def _stored_run_summaries(store, tmp_path, backend, workers, runs):
        """The ``telemetry`` meta of every entry a cached call stores right
        after an uncached run left its phase summary behind."""
        from repro.telemetry import set_telemetry_dir

        set_telemetry_dir(tmp_path / "events")
        try:
            earlier = setting1_scenario(policy="exp3", num_devices=6, horizon_slots=30)
            run_many(earlier, 1, backend="vectorized")
            scenario = setting1_scenario(policy="greedy", num_devices=5, horizon_slots=20)
            run_many(
                scenario,
                runs,
                backend=backend,
                workers=workers,
                reduce="summary",
                cache=CacheSpec(mode="reuse", store=store),
            )
        finally:
            set_telemetry_dir(None)
        return [meta.get("telemetry") for _, meta, _ in store.entries()]

    def test_serial_entry_carries_no_earlier_run_summary(self, store, tmp_path):
        """The event backend records no summary, so its entry carries none."""
        summaries = self._stored_run_summaries(
            store, tmp_path, backend="event", workers=None, runs=1
        )
        assert summaries == [None]

    def test_pool_entries_carry_no_earlier_run_summary(self, store, tmp_path):
        """Pool workers' summaries stay in the workers; the parent stores none."""
        summaries = self._stored_run_summaries(
            store, tmp_path, backend="vectorized", workers=2, runs=3
        )
        assert summaries == [None, None, None]

    def test_stacked_entries_carry_no_stack_summary(self, store, tmp_path):
        """One phase profile covers a whole stack of runs, so none of the
        stacked cells' entries carries it."""
        from repro.telemetry import set_telemetry_dir

        scenario = setting1_scenario(policy="exp3", num_devices=5, horizon_slots=30)
        set_telemetry_dir(tmp_path / "events")
        try:
            run_many(
                scenario,
                3,
                backend="vectorized",
                reduce="summary",
                cache=CacheSpec(mode="reuse", store=store),
            )
        finally:
            set_telemetry_dir(None)
        summaries = [meta.get("telemetry") for _, meta, _ in store.entries()]
        assert summaries == [None, None, None]

    def test_corrupt_entry_refused_then_refresh_recovers(
        self, tiny_setting1, store, spec
    ):
        run_many(tiny_setting1, 2, reduce="summary", cache=spec)
        keys = grid_keys(
            tiny_setting1,
            base_seed=0,
            runs=2,
            record_probabilities=False,
            reducer=SummaryReducer(),
        )
        payload_path = store.entry_dir(keys[0].fingerprint) / PAYLOAD_NAME
        payload_path.write_bytes(b"garbage")
        with pytest.raises(CacheError, match="refresh"):
            run_many(tiny_setting1, 2, reduce="summary", cache=spec)
        refreshed = run_many(
            tiny_setting1,
            2,
            reduce="summary",
            cache=CacheSpec(mode="refresh", store=store),
        )
        off = run_many(tiny_setting1, 2, reduce="summary")
        assert _canonical(refreshed) == _canonical(off)
        healed = RunStore(store.root)
        run_many(
            tiny_setting1,
            2,
            reduce="summary",
            cache=CacheSpec(mode="reuse", store=healed),
        )
        assert healed.hits == 2


class TestSweep:
    def _cases(self):
        return [
            SweepCase(
                name=f"devices={n}",
                scenario=setting1_scenario(
                    policy="smart_exp3", num_devices=n, horizon_slots=60
                ),
                runs=2,
            )
            for n in (4, 6)
        ]

    def test_expand_grid_names_and_rejects_duplicates(self):
        cases = expand_grid(
            lambda num_devices: setting1_scenario(
                policy="smart_exp3",
                num_devices=num_devices,
                horizon_slots=60,
            ),
            {"num_devices": (4, 6)},
            runs=2,
        )
        assert [case.name for case in cases] == ["num_devices=4", "num_devices=6"]
        with pytest.raises(ValueError, match="duplicate"):
            expand_grid(
                lambda num_devices: setting1_scenario(
                    policy="smart_exp3",
                    num_devices=num_devices,
                    horizon_slots=60,
                ),
                {"num_devices": (4, 6)},
                runs=2,
                name_fn=lambda params: "same",
            )

    def test_partially_warm_sweep_computes_only_missing(self, store):
        cases = self._cases()
        cold = run_sweep(
            cases, reduce="summary", cache=CacheSpec(mode="reuse", store=store)
        )
        assert cold.cells_cached == 0 and cold.cells_computed == 4

        # Warm only the first case's cells in a second store.
        partial_store = RunStore(store.root.parent / "partial")
        run_many(
            cases[0].scenario,
            cases[0].runs,
            reduce="summary",
            cache=CacheSpec(mode="reuse", store=partial_store),
        )
        tracking = RunStore(partial_store.root)
        report = run_sweep(
            cases,
            reduce="summary",
            cache=CacheSpec(mode="reuse", store=tracking),
        )
        assert report.cells_cached == 2 and report.cells_computed == 2
        assert tracking.stored == 2  # only the second case simulated
        for name in ("devices=4", "devices=6"):
            assert _canonical(report.results[name]) == _canonical(
                cold.results[name]
            )

    def test_second_sweep_on_the_default_store_computes_nothing(
        self, tmp_path, monkeypatch
    ):
        import repro.sim.runner as runner

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        cases = self._cases()
        first = run_sweep(cases, reduce="summary", cache="reuse")
        assert first.cells_cached == 0 and first.cells_computed == 4

        def no_simulation(*args, **kwargs):
            raise AssertionError("a cached cell was simulated")

        monkeypatch.setattr(runner, "_run_batch", no_simulation)
        second = run_sweep(cases, reduce="summary", cache="reuse")
        assert second.cells_cached == 4 and second.cells_computed == 0
        for name in ("devices=4", "devices=6"):
            assert _canonical(second.results[name]) == _canonical(
                first.results[name]
            )

    def test_run_sweep_requires_reduce_and_cases(self, spec):
        with pytest.raises(ValueError, match="reduce"):
            run_sweep(self._cases(), reduce=None, cache=spec)
        with pytest.raises(ValueError, match="at least one"):
            run_sweep([], reduce="summary", cache=spec)


class TestExperimentConfigCache:
    def test_invalid_mode_fails_at_config_time(self):
        with pytest.raises(ValueError, match="cache mode"):
            ExperimentConfig(runs=1, cache="sometimes")

    def test_drivers_reuse_through_config(self, tiny_setting1, store):
        config = ExperimentConfig(
            runs=2,
            horizon_slots=60,
            cache=CacheSpec(mode="reuse", store=store),
        )
        cold = run_scenario(tiny_setting1, config, reduce="summary")
        assert store.stored == 2
        warm_store = RunStore(store.root)
        warm = run_scenario(
            tiny_setting1,
            config.replace(cache=CacheSpec(mode="reuse", store=warm_store)),
            reduce="summary",
        )
        assert warm_store.hits == 2 and warm_store.stored == 0
        assert _canonical(warm) == _canonical(cold)

    def test_full_result_drivers_run_under_a_cached_config(self, store):
        """The registry stores reducer payloads: a driver that keeps full
        results (tab04) simulates every run under a cached config, while
        fig04, which reduces each run to its distance series, stores one
        entry per cell and resumes from them."""
        from repro.experiments import fig04_distance_static, tab04_time_to_stable

        cached = ExperimentConfig(
            runs=1, horizon_slots=20, cache=CacheSpec(mode="reuse", store=store)
        )
        full = tab04_time_to_stable.run(cached)
        plain = tab04_time_to_stable.run(cached.replace(cache="off"))
        assert json.dumps(full, sort_keys=True) == json.dumps(plain, sort_keys=True)
        assert store.stored == 0

        policies = ("exp3", "greedy")
        cold = fig04_distance_static.run(cached, policies=policies)
        cells = len(fig04_distance_static.STATIC_SETTINGS) * len(policies)
        assert store.stored == cells
        warm_store = RunStore(store.root)
        warm = fig04_distance_static.run(
            cached.replace(cache=CacheSpec(mode="reuse", store=warm_store)),
            policies=policies,
        )
        assert warm_store.hits == cells and warm_store.stored == 0
        assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)


class TestRegistryCLI:
    def test_ls_inspect_gc_verify(self, store, tiny_setting1, capsys):
        run_many(
            tiny_setting1,
            2,
            reduce="summary",
            cache=CacheSpec(mode="reuse", store=store),
        )
        root = str(store.root)
        assert registry_cli(["--root", root, "ls"]) == 0
        listing = capsys.readouterr().out
        assert tiny_setting1.name in listing and "2 artifact(s)" in listing

        fingerprint = next(iter(store.entries()))[0]
        assert registry_cli(["--root", root, "inspect", fingerprint[:10]]) == 0
        assert '"payload_sha256"' in capsys.readouterr().out
        assert registry_cli(["--root", root, "inspect", "ffff"]) == 1
        capsys.readouterr()

        assert registry_cli(["--root", root, "verify"]) == 0
        capsys.readouterr()
        victim = store.entry_dir(fingerprint) / PAYLOAD_NAME
        victim.write_bytes(b"garbage")
        assert registry_cli(["--root", root, "verify"]) == 1
        capsys.readouterr()
        assert registry_cli(["--root", root, "verify", "--delete"]) == 0
        capsys.readouterr()

        assert registry_cli(["--root", root, "gc"]) == 2  # no criteria given
        capsys.readouterr()
        assert registry_cli(["--root", root, "gc", "--all", "--dry-run"]) == 0
        assert "would remove 1 artifact(s)" in capsys.readouterr().out
        assert registry_cli(["--root", root, "gc", "--all"]) == 0
        assert list(store.entries()) == []


class TestPayloadRoundtrip:
    def test_cached_payload_bytes_roundtrip(self, store, tiny_setting1):
        """The stored artifact is the reducer's map payload, byte-checked."""
        spec = CacheSpec(mode="reuse", store=store)
        run_many(tiny_setting1, 1, reduce="summary", cache=spec)
        fingerprint, meta, _ = next(iter(store.entries()))
        blob = (store.entry_dir(fingerprint) / PAYLOAD_NAME).read_bytes()
        payload = pickle.loads(blob)
        assert isinstance(payload, list) and payload[0]["seed"] == 0
        assert meta["payload_bytes"] == len(blob)
