"""Content-addressed artifact store for finalized reducer payloads.

Layout (``~/.cache/repro-runs/`` or ``$REPRO_RUN_CACHE``)::

    <root>/<fp[:2]>/<fingerprint>/
        payload.pkl   # the reducer's per-run map payload, pickled
        meta.json     # format version, SHA-256, summary, provenance

Writes are crash-safe the same way ``sharded/checkpoint.py`` commits
checkpoints: the entry is staged in a temp directory (each file written,
flushed and fsync'd), then published with one atomic ``os.rename``.  A
reader either sees a complete committed entry or nothing.

Loads refuse **loudly** — :class:`CacheError`, never a silently stale or
corrupt artifact — when the payload checksum, the store format version, or
the provenance (code fingerprint of the result-affecting modules, numpy
major.minor) does not match the current process.
``cache="refresh"`` is the escape hatch: it recomputes and overwrites.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import sys
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

from repro.registry.fingerprint import CellKey, code_fingerprint

#: Bump when the on-disk entry layout changes (refuses older entries).
STORE_FORMAT_VERSION = 1
#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "REPRO_RUN_CACHE"

PAYLOAD_NAME = "payload.pkl"
META_NAME = "meta.json"

#: The cache modes accepted by ``run_many(cache=...)`` / ``ExperimentConfig``.
CACHE_MODES = ("off", "reuse", "refresh")

#: Sentinel distinguishing "not cached" from a cached ``None`` payload.
MISS = object()


class CacheError(RuntimeError):
    """A cache entry exists but cannot be trusted (corrupt/stale/foreign)."""


def default_cache_root() -> Path:
    """``$REPRO_RUN_CACHE`` if set, else ``~/.cache/repro-runs``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-runs"


def _provenance() -> dict:
    return {
        "code_fingerprint": code_fingerprint(),
        "python_version": ".".join(map(str, sys.version_info[:3])),
        "numpy_version": np.__version__,
    }


def _numpy_series(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class RunStore:
    """The on-disk registry of reduced run artifacts (see module docstring)."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        # Per-instance traffic counters; the bench suite uses them to prove
        # a warm sweep performed zero simulations.
        self.hits = 0
        self.misses = 0
        self.stored = 0

    def _emit(self, op: str, **fields) -> None:
        """One ``registry`` telemetry event per cache operation."""
        from repro.telemetry import get_telemetry

        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.event("registry", op=op, **fields)

    # ------------------------------------------------------------ addressing

    def entry_dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / fingerprint

    def contains(self, fingerprint: str) -> bool:
        """Whether a *committed* entry exists (no integrity check)."""
        return (self.entry_dir(fingerprint) / META_NAME).is_file()

    # ------------------------------------------------------------------ load

    def load(self, fingerprint: str):
        """The cached payload, or :data:`MISS`; :class:`CacheError` when the
        entry exists but fails any integrity or provenance check."""
        entry = self.entry_dir(fingerprint)
        meta_path = entry / META_NAME
        if not meta_path.is_file():
            self.misses += 1
            self._emit("miss", fingerprint=fingerprint[:12])
            return MISS
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise CacheError(
                f"unreadable cache metadata at {meta_path}: {exc}; "
                "delete the entry or rerun with cache='refresh'"
            ) from exc
        self._check_meta(fingerprint, entry, meta)
        payload_path = entry / PAYLOAD_NAME
        try:
            blob = payload_path.read_bytes()
        except OSError as exc:
            raise CacheError(
                f"cache entry {fingerprint[:12]} at {entry} has no readable "
                f"payload: {exc}; rerun with cache='refresh'"
            ) from exc
        digest = sha256(blob).hexdigest()
        if digest != meta.get("payload_sha256"):
            raise CacheError(
                f"checksum mismatch for cache entry {fingerprint[:12]} at "
                f"{entry}: payload sha256 {digest[:12]} != recorded "
                f"{str(meta.get('payload_sha256'))[:12]} — the artifact is "
                "corrupt; rerun with cache='refresh' to recompute it"
            )
        self.hits += 1
        self._emit("hit", fingerprint=fingerprint[:12], bytes=len(blob))
        return pickle.loads(blob)

    def _check_meta(self, fingerprint: str, entry: Path, meta: dict) -> None:
        version = meta.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise CacheError(
                f"cache entry {fingerprint[:12]} at {entry} uses store format "
                f"{version!r}, this code writes {STORE_FORMAT_VERSION}; "
                "rerun with cache='refresh' (or gc the stale store)"
            )
        if meta.get("fingerprint") != fingerprint:
            raise CacheError(
                f"cache entry at {entry} records fingerprint "
                f"{str(meta.get('fingerprint'))[:12]} but is filed under "
                f"{fingerprint[:12]} — the store is corrupt; rerun with "
                "cache='refresh'"
            )
        recorded = meta.get("provenance", {})
        current = _provenance()
        if recorded.get("code_fingerprint") != current["code_fingerprint"]:
            raise CacheError(
                f"cache entry {fingerprint[:12]} was produced by different "
                "result-affecting code (code fingerprint "
                f"{str(recorded.get('code_fingerprint'))[:12]} != current "
                f"{current['code_fingerprint'][:12]}); rerun with "
                "cache='refresh' to recompute, or gc the stale store"
            )
        if _numpy_series(str(recorded.get("numpy_version"))) != _numpy_series(
            current["numpy_version"]
        ):
            raise CacheError(
                f"cache entry {fingerprint[:12]} was produced under numpy "
                f"{recorded.get('numpy_version')} but this process runs "
                f"{current['numpy_version']} (RNG streams are only pinned "
                "within a minor series); rerun with cache='refresh'"
            )

    # ----------------------------------------------------------------- store

    def store(self, key: CellKey, payload, wall_seconds: float | None = None) -> Path:
        """Commit one cell's payload atomically; returns the entry directory.

        When the committing process just executed the run on its own (a
        serial solo run, or a stack of one run), the last run summary
        recorded by the profiling layer is attached under the ``telemetry``
        meta key, so ``python -m repro.registry inspect`` shows where a
        cached run spent its time.  Entries of a stack of several runs carry
        none, because its one profile covers the whole stack; nor do runs
        or stacks of a pool worker, which store parent-side, where no
        profile ran.
        """
        from repro.telemetry import take_run_summary

        entry = self.entry_dir(key.fingerprint)
        bucket = entry.parent
        bucket.mkdir(parents=True, exist_ok=True)
        refresh = entry.exists()
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {
            "format_version": STORE_FORMAT_VERSION,
            "fingerprint": key.fingerprint,
            "created_unix": time.time(),
            "wall_seconds": wall_seconds,
            "payload_bytes": len(blob),
            "payload_sha256": sha256(blob).hexdigest(),
            "summary": key.summary,
            "provenance": _provenance(),
        }
        run_summary = take_run_summary()
        if run_summary is not None:
            meta["telemetry"] = run_summary
        staging = bucket / f".staging-{key.fingerprint[:16]}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            (staging / PAYLOAD_NAME).write_bytes(blob)
            _fsync_file(staging / PAYLOAD_NAME)
            (staging / META_NAME).write_text(
                json.dumps(meta, indent=2, sort_keys=True) + "\n"
            )
            _fsync_file(staging / META_NAME)
            _fsync_dir(staging)
            if entry.exists():  # refresh overwrites in place
                shutil.rmtree(entry)
            try:
                os.rename(staging, entry)
            except OSError:
                # Lost a commit race: someone else published the same
                # fingerprint between our rmtree and rename.  Their entry is
                # bit-identical by construction, so keep it.
                if not (entry / META_NAME).is_file():
                    raise
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        _fsync_dir(bucket)
        self.stored += 1
        self._emit(
            "refresh" if refresh else "store",
            fingerprint=key.fingerprint[:12],
            bytes=len(blob),
            wall_seconds=wall_seconds,
        )
        return entry

    # ---------------------------------------------------------- maintenance

    def entries(self):
        """Yield ``(fingerprint, meta, bytes)`` for every committed entry."""
        if not self.root.is_dir():
            return
        for bucket in sorted(self.root.iterdir()):
            if not bucket.is_dir() or bucket.name.startswith("."):
                continue
            for entry in sorted(bucket.iterdir()):
                meta_path = entry / META_NAME
                if not entry.is_dir() or not meta_path.is_file():
                    continue
                try:
                    meta = json.loads(meta_path.read_text())
                except (OSError, ValueError):
                    meta = {}
                size = sum(
                    child.stat().st_size
                    for child in entry.iterdir()
                    if child.is_file()
                )
                yield entry.name, meta, size

    def delete(self, fingerprint: str) -> bool:
        entry = self.entry_dir(fingerprint)
        if not entry.is_dir():
            return False
        shutil.rmtree(entry)
        return True

    def gc(
        self,
        older_than_days: float | None = None,
        max_bytes: int | None = None,
        clear: bool = False,
        dry_run: bool = False,
    ) -> list[tuple[str, int]]:
        """Remove entries by age / total-size budget; returns the removals.

        ``older_than_days`` drops entries created before the cutoff;
        ``max_bytes`` then drops the oldest survivors until the store fits
        the budget; ``clear`` drops everything.
        """
        inventory = sorted(
            self.entries(), key=lambda item: item[1].get("created_unix", 0.0)
        )
        removed: list[tuple[str, int]] = []
        survivors: list[tuple[str, dict, int]] = []
        cutoff = (
            time.time() - older_than_days * 86400.0
            if older_than_days is not None
            else None
        )
        for fingerprint, meta, size in inventory:
            stale = clear or (
                cutoff is not None and meta.get("created_unix", 0.0) < cutoff
            )
            if stale:
                removed.append((fingerprint, size))
            else:
                survivors.append((fingerprint, meta, size))
        if max_bytes is not None:
            total = sum(size for _, _, size in survivors)
            for fingerprint, _, size in survivors:  # oldest first
                if total <= max_bytes:
                    break
                removed.append((fingerprint, size))
                total -= size
        if not dry_run:
            for fingerprint, _ in removed:
                self.delete(fingerprint)
            if removed:
                self._emit(
                    "gc",
                    count=len(removed),
                    bytes=sum(size for _, size in removed),
                )
        return removed

    def verify(self) -> tuple[list[str], list[tuple[str, str]]]:
        """Integrity-check every entry; returns ``(ok, [(fp, error), ...])``."""
        ok: list[str] = []
        corrupt: list[tuple[str, str]] = []
        for fingerprint, _, _ in self.entries():
            hits = self.hits
            try:
                self.load(fingerprint)
            except CacheError as exc:
                corrupt.append((fingerprint, str(exc)))
            else:
                ok.append(fingerprint)
                self.hits = hits  # verification traffic is not cache traffic
        return ok, corrupt


@dataclass(frozen=True)
class CacheSpec:
    """Resolved ``cache=`` argument: a mode plus (optionally) a store.

    ``store=None`` uses the default root (``$REPRO_RUN_CACHE`` or
    ``~/.cache/repro-runs``); tests and benchmarks pass explicit stores
    rooted in temp directories.
    """

    mode: str = "off"
    store: RunStore | None = None

    def __post_init__(self) -> None:
        if self.mode not in CACHE_MODES:
            raise ValueError(
                f"cache mode must be one of {CACHE_MODES}, got {self.mode!r}"
            )

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def resolve_store(self) -> RunStore:
        return self.store if self.store is not None else RunStore()


def resolve_cache(cache) -> CacheSpec:
    """Normalize ``cache="off"|"reuse"|"refresh"|CacheSpec|None``."""
    if cache is None:
        return CacheSpec(mode="off")
    if isinstance(cache, CacheSpec):
        return cache
    if isinstance(cache, str):
        return CacheSpec(mode=cache)
    raise TypeError(
        f"cache must be one of {CACHE_MODES} or a CacheSpec, got {type(cache)!r}"
    )
