"""Periodic shard-state checkpointing and bit-exact resume.

Every piece of a sharded run's mutable state is picklable by construction —
kernel arrays, per-device policy RNG generators, the environment-RNG
replica, reducer partials, recorder windows, ``TopologyPlan`` cursors — so
durability is a serialization protocol, not a redesign.  Once per
``every_slots`` slots each worker snapshots its shards.  Snapshots use a
columnar codec (:func:`snapshot_dumps` together with
``ShardEngine.__getstate__``): kernel-resident rows are serialized as their
batched group arrays plus one packed RNG state per row, and their scalar
policy objects are rebuilt from seeds at restore — pickling per-device
Python objects would cost more than the compute between checkpoints.  A
resumed run
restores every shard at the checkpointed slot and continues **bit-exact**:
a run that crashes and resumes produces byte-identical results to one that
never crashed (the acceptance test of the fault-tolerance suite).

Commit protocol
---------------

A checkpoint at slot ``s`` lives in ``<dir>/ckpt_<s:08d>/``:

* each worker atomically writes one ``shard_<index:04d>.pkl`` per shard it
  drives — ``(engine, reducer_state)`` — via write-to-temp + ``fsync`` +
  ``os.replace``;
* worker 0 writes ``env.pkl`` (the shared environment-RNG replica — all
  workers' replicas are identical at a slot boundary by the lockstep
  contract);
* a bus barrier confirms every worker finished writing, then worker 0
  commits ``MANIFEST.json`` — format version, a fingerprint of the run
  configuration, the slot/window cursors, and a SHA-256 per file — and
  prunes checkpoints beyond ``keep``.

A directory without a manifest is an uncommitted (crashed-mid-write)
checkpoint and is invisible to resume.  Resume validates the manifest's
format version and fingerprint (mismatched scenario/seed/shard-count fails
loudly, naming the differing fields) and every file's checksum (a corrupted
file raises :class:`CheckpointError` — a clean refusal, never silent wrong
results).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.sim.backends.base import DeviceRuntime

#: Bump when the checkpoint layout or pickle payload shape changes; resume
#: refuses manifests with a different version.
CHECKPOINT_FORMAT_VERSION = 3

MANIFEST_NAME = "MANIFEST.json"
_CKPT_PREFIX = "ckpt_"


class CheckpointError(RuntimeError):
    """A checkpoint could not be used: missing, mismatched, or corrupt."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Periodic checkpointing policy for a sharded run.

    Attributes
    ----------
    every_slots:
        Checkpoint cadence: a snapshot is committed after every slot whose
        index is a multiple of this.  The cadence is a durability/throughput
        trade-off — each checkpoint costs one columnar snapshot of every
        shard's state plus fsync'd writes, so small populations can afford
        tight cadences
        while megascale runs typically checkpoint every few hundred slots
        (the ``--suite shard`` benchmark records the overhead; CI keeps it
        under 15% at a 100-slot cadence).
    dir:
        Directory receiving ``ckpt_<slot>`` subdirectories (created on
        demand).
    keep:
        How many committed checkpoints to retain; older ones are pruned at
        each commit.
    """

    every_slots: int
    dir: str | Path
    keep: int = 2

    def __post_init__(self) -> None:
        if self.every_slots < 1:
            raise ValueError(
                f"every_slots must be >= 1, got {self.every_slots}"
            )
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")

    @property
    def path(self) -> Path:
        return Path(self.dir)

    def for_run(self, name: str) -> "CheckpointConfig":
        """A copy checkpointing into the ``name`` subdirectory (multi-run)."""
        return replace(self, dir=self.path / name)


@dataclass(frozen=True)
class ResumeState:
    """A validated checkpoint to restore from (picklable, sent to workers)."""

    directory: str
    slot: int
    window_start: int
    manifest: dict

    @property
    def path(self) -> Path:
        return Path(self.directory)


# ---------------------------------------------------------------- identity


def run_fingerprint(plan, **fields) -> tuple[str, dict]:
    """Fingerprint of everything a checkpoint must match to be resumable.

    Covers the device population (digested — per-device identity for
    explicit scenarios, the generative parameters for populations), the
    shard layout, the horizon, the run's derived RNG seeds, and every
    execution knob that shapes the state being pickled.  Deliberately
    excludes the *worker* count: shard files are per shard, so a run
    checkpointed under ``workers=4`` resumes bit-exact under ``workers=1``
    or ``workers=8``.
    """
    spec = plan.specs[0]
    digest = hashlib.sha256()
    if spec.population is not None:
        population = spec.population
        digest.update(
            repr(
                (
                    population.num_devices,
                    population.policy,
                    population.bandwidths,
                    population.horizon_slots,
                    population.slot_duration_s,
                    type(population.delay_model).__name__,
                    sorted(population.policy_kwargs.items()),
                    population.name,
                )
            ).encode()
        )
    else:
        scenario = spec.scenario
        digest.update(
            repr(
                (
                    scenario.name,
                    tuple(
                        (network_id, network.bandwidth_mbps)
                        for network_id, network in sorted(
                            scenario.network_map.items()
                        )
                    ),
                    type(scenario.delay_model).__name__,
                    type(scenario.gain_model).__name__,
                )
            ).encode()
        )
        for shard in plan.specs:
            for device_spec in shard.scenario.device_specs:
                device = device_spec.device
                digest.update(
                    repr(
                        (
                            device.device_id,
                            device_spec.policy,
                            device.join_slot,
                            device.leave_slot,
                            sorted(device.area_schedule.items())
                            if device.area_schedule
                            else (),
                        )
                    ).encode()
                )
    config = {
        "population_digest": digest.hexdigest(),
        "shards": plan.shards,
        "num_devices": plan.num_devices,
        **fields,
    }
    fingerprint = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    return fingerprint, config


# ------------------------------------------------------- snapshot pickling


def _restore_generator(name: str, state: dict):
    """Rebuild an ``np.random.Generator`` from its bit-generator state."""
    bit_generator = getattr(np.random, name)()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _restore_runtime(spec, policy, previous_choice, visible):
    runtime = DeviceRuntime.__new__(DeviceRuntime)
    runtime.spec = spec
    runtime.policy = policy
    runtime.previous_choice = previous_choice
    runtime.visible = visible
    return runtime


class _SnapshotPickler(pickle.Pickler):
    """Pickler tuned for the per-device hot path of shard snapshots.

    ``np.random.Generator.__reduce__`` costs ~25µs per instance (it routes
    through the generic constructor protocol); packing the bit-generator
    state dict directly is ~6x faster, which matters when a snapshot holds
    one generator per device.  ``DeviceRuntime`` gets the same treatment.
    Object identity is preserved by the pickle memo, so generators shared
    between a scalar policy and its batch kernel stay shared on load.
    """

    def reducer_override(self, obj):
        kind = type(obj)
        if kind is np.random.Generator:
            bit_generator = obj.bit_generator
            return (
                _restore_generator,
                (type(bit_generator).__name__, bit_generator.state),
            )
        if kind is DeviceRuntime:
            return (
                _restore_runtime,
                (obj.spec, obj.policy, obj.previous_choice, obj.visible),
            )
        return NotImplemented


def snapshot_dumps(payload) -> bytes:
    """Serialize a checkpoint payload with the tuned snapshot pickler."""
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


# ------------------------------------------------------------ atomic writes


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-to-temp + fsync + rename: the file is complete or absent."""
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def checkpoint_dir(config: CheckpointConfig, slot: int) -> Path:
    return config.path / f"{_CKPT_PREFIX}{slot:08d}"


def shard_file_name(shard_index: int) -> str:
    return f"shard_{shard_index:04d}.pkl"


def write_shard_states(
    config: CheckpointConfig,
    slot: int,
    engines,
    states,
    drop_recorder: bool = False,
) -> Path:
    """Atomically write one ``(engine, reducer_state)`` file per shard.

    ``drop_recorder=True`` certifies the checkpoint landed right after a
    window flush, so the recorder blocks are freshly zeroed and the engine
    snapshot may replace them with a stub (see ``ShardEngine.__getstate__``).
    """
    directory = checkpoint_dir(config, slot)
    os.makedirs(directory, exist_ok=True)
    for engine, state in zip(engines, states):
        if drop_recorder:
            engine._snapshot_drop_recorder = True
        try:
            payload = snapshot_dumps((engine, state))
        finally:
            engine.__dict__.pop("_snapshot_drop_recorder", None)
        _atomic_write(directory / shard_file_name(engine.spec.index), payload)
    return directory


def write_environment(config: CheckpointConfig, slot: int, delay_env) -> None:
    directory = checkpoint_dir(config, slot)
    os.makedirs(directory, exist_ok=True)
    _atomic_write(directory / "env.pkl", snapshot_dumps(delay_env))


def commit_manifest(
    config: CheckpointConfig,
    slot: int,
    fingerprint: str,
    fingerprint_config: dict,
    window_start: int,
    shards: int,
) -> Path:
    """Checksum every state file and atomically commit the manifest.

    Called by worker 0 *after* the checkpoint barrier, so every shard file
    is known complete.  Missing files mean a protocol bug, not a partial
    write — fail loudly.
    """
    directory = checkpoint_dir(config, slot)
    expected = [shard_file_name(index) for index in range(shards)] + ["env.pkl"]
    files = {}
    for name in expected:
        path = directory / name
        if not path.exists():
            raise CheckpointError(
                f"checkpoint at slot {slot} is missing {name!r} after the "
                "write barrier; refusing to commit a partial manifest"
            )
        files[name] = _sha256_file(path)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "config": fingerprint_config,
        "slot": slot,
        "window_start": window_start,
        "shards": shards,
        "files": files,
        "created_at": time.time(),
    }
    _atomic_write(
        directory / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )
    _fsync_dir(directory)
    from repro.telemetry import get_telemetry  # local: keep pickling light

    telemetry = get_telemetry()
    if telemetry is not None:
        telemetry.event(
            "checkpoint_commit",
            slot=slot,
            shards=shards,
            bytes=sum((directory / name).stat().st_size for name in files),
        )
    prune_checkpoints(config)
    return directory


def prune_checkpoints(config: CheckpointConfig) -> None:
    """Drop committed checkpoints beyond ``keep`` (oldest first)."""
    committed = sorted(
        entry
        for entry in config.path.glob(f"{_CKPT_PREFIX}*")
        if (entry / MANIFEST_NAME).exists()
    )
    for stale in committed[: max(0, len(committed) - config.keep)]:
        for item in stale.iterdir():
            item.unlink()
        stale.rmdir()


# ----------------------------------------------------------------- resume


def latest_checkpoint(directory: str | Path) -> Path | None:
    """Newest *committed* checkpoint under ``directory`` (or ``None``).

    ``directory`` may be the checkpoint root (``ckpt_*`` children are
    scanned) or one specific ``ckpt_<slot>`` directory.
    """
    path = Path(directory)
    if (path / MANIFEST_NAME).exists():
        return path
    committed = sorted(
        entry
        for entry in path.glob(f"{_CKPT_PREFIX}*")
        if (entry / MANIFEST_NAME).exists()
    )
    return committed[-1] if committed else None


def resolve_resume(
    directory: str | Path | None,
    fingerprint: str,
    fingerprint_config: dict,
    required: bool = False,
) -> ResumeState | None:
    """Find and validate the checkpoint to resume from.

    Returns ``None`` when ``directory`` is ``None`` or holds no committed
    checkpoint and ``required`` is false (the caller starts fresh — the
    degenerate case of a crash before the first checkpoint).  Raises
    :class:`CheckpointError` on a missing-but-required checkpoint, a
    format-version mismatch, or a fingerprint mismatch (naming the
    configuration fields that differ, so "resumed against the wrong
    scenario/seed/shard-count" is a one-line diagnosis).
    """
    if directory is None:
        return None
    found = latest_checkpoint(directory)
    if found is None:
        if required:
            raise CheckpointError(
                f"no committed checkpoint under {directory!s} "
                f"(a checkpoint directory must contain {MANIFEST_NAME})"
            )
        return None
    try:
        manifest = json.loads((found / MANIFEST_NAME).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint manifest {found / MANIFEST_NAME}: {exc}"
        ) from exc
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {found} has format version {version}, "
            f"this build reads version {CHECKPOINT_FORMAT_VERSION}"
        )
    if manifest.get("fingerprint") != fingerprint:
        stored = manifest.get("config", {})
        differing = sorted(
            key
            for key in set(stored) | set(fingerprint_config)
            if stored.get(key) != fingerprint_config.get(key)
        )
        raise CheckpointError(
            f"checkpoint {found} does not match this run's configuration "
            f"(differing fields: {', '.join(differing) or 'unknown'}); "
            "resuming would not be bit-exact — refusing"
        )
    return ResumeState(
        directory=str(found),
        slot=int(manifest["slot"]),
        window_start=int(manifest["window_start"]),
        manifest=manifest,
    )


def _verified_payload(resume: ResumeState, name: str) -> bytes:
    path = resume.path / name
    recorded = resume.manifest["files"].get(name)
    if recorded is None:
        raise CheckpointError(
            f"checkpoint {resume.directory} has no manifest entry for {name!r}"
        )
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint file {path} is unreadable: {exc}"
        ) from exc
    actual = hashlib.sha256(data).hexdigest()
    if actual != recorded:
        raise CheckpointError(
            f"checkpoint file {path} is corrupt "
            f"(sha256 {actual[:12]}… != manifest {recorded[:12]}…); "
            "refusing to resume from damaged state"
        )
    return data


def load_shard_state(resume: ResumeState, shard_index: int):
    """The checksum-verified ``(engine, reducer_state)`` of one shard."""
    return pickle.loads(_verified_payload(resume, shard_file_name(shard_index)))


def load_environment(resume: ResumeState):
    """The checksum-verified environment-RNG replica."""
    return pickle.loads(_verified_payload(resume, "env.pkl"))
