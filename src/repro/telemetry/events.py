"""Structured JSONL event log (one file per process).

Every process participating in a run — the driver, ``run_many`` pool
workers, sharded shard workers — appends whole-line JSON events to its own
``events-<pid>.jsonl`` under ``REPRO_TELEMETRY_DIR``.  One file per process
means no cross-process locking on the hot path; the monitor CLI
(:mod:`repro.telemetry.__main__`) merges the streams by timestamp.

The schema is versioned (:data:`SCHEMA_VERSION`): every event carries the
envelope fields (version, timestamp, pid, process label, per-process
sequence number, type) plus the type's required payload fields
(:data:`EVENT_TYPES`).  Events are validated at emit time *and* by the
reader, so a log that parses is a log the monitor can trust; unknown extra
fields are allowed (forward-compatible), unknown types and missing required
fields are not (:class:`SchemaError`).

Writes are whole-line appends flushed per event: concurrent processes
interleave complete lines, and a hard-killed worker (``os._exit``) loses at
most the event it never emitted — which is how the fault-injection
acceptance test can find a ``fault_injected`` event from a worker that died
microseconds later.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

#: Bump when the envelope or any required-field set changes; the reader
#: refuses events from a different major schema.
SCHEMA_VERSION = 1

#: Fields every event carries, in serialization order.
ENVELOPE_FIELDS = ("v", "ts", "pid", "proc", "seq", "type")

#: Event vocabulary: type -> required payload fields.  Extra fields are
#: always allowed; these are the minimum the monitor renders from.
EVENT_TYPES: dict[str, tuple[str, ...]] = {
    # -- run lifecycle (per executor run / per experiment)
    "run_start": ("tag", "devices", "slots"),
    "run_end": ("tag", "seconds"),
    "run_failed": ("tag", "error"),
    "run_many_start": ("runs", "backend"),
    "run_many_end": ("runs", "seconds"),
    # -- sharded workers
    "worker_start": ("worker", "shards", "start_slot"),
    "worker_end": ("worker", "slots", "seconds"),
    "progress": ("worker", "slot", "num_slots", "device_slots_per_second"),
    "worker_restart": ("attempt", "error", "backoff_s"),
    # -- execution paths: runs stacked into one engine, a cell kept solo
    # (backend, gain_model or budget), and fallbacks
    "run_stack": ("runs", "rows"),
    "run_solo": ("reason",),
    "path_fallback": ("kind", "reason"),
    # -- a scenario the sharded backend cannot split runs as one shard
    "one_shard_fallback": ("gain_model", "shards"),
    # -- phase timing (the REPRO_PROFILE payload, re-based on telemetry)
    "phase_profile": ("tag", "total_seconds", "seconds", "share"),
    # -- draw-window truncation reasons (aggregated per run/worker)
    "fused_windows": ("tag", "windows", "reasons"),
    # -- durability
    "checkpoint_write": ("worker", "slot", "seconds"),
    "checkpoint_commit": ("slot", "shards"),
    # -- barriers
    "barrier_waits": ("worker", "waits", "seconds", "histogram"),
    "barrier_timeout": ("slot", "phase", "arrived", "missing"),
    # -- fault injection
    "fault_injected": ("kind", "worker", "slot"),
    # -- run registry traffic
    "registry": ("op",),
}


class SchemaError(ValueError):
    """An event does not conform to the telemetry schema."""


def validate_event(event: dict) -> None:
    """Raise :class:`SchemaError` unless ``event`` conforms to the schema."""
    if not isinstance(event, dict):
        raise SchemaError(f"event must be an object, got {type(event).__name__}")
    for field in ENVELOPE_FIELDS:
        if field not in event:
            raise SchemaError(f"event is missing envelope field {field!r}")
    if event["v"] != SCHEMA_VERSION:
        raise SchemaError(
            f"event has schema version {event['v']!r}, "
            f"this reader understands {SCHEMA_VERSION}"
        )
    kind = event["type"]
    required = EVENT_TYPES.get(kind)
    if required is None:
        raise SchemaError(f"unknown event type {kind!r}")
    missing = [field for field in required if field not in event]
    if missing:
        raise SchemaError(
            f"event type {kind!r} is missing required field(s) "
            f"{', '.join(missing)}"
        )


def _jsonable(value):
    """Coerce numpy scalars/arrays (the usual payload guests) to JSON."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


class EventLog:
    """Append-only per-process event stream under a telemetry directory."""

    def __init__(self, directory: str | Path, proc: str) -> None:
        self.directory = Path(directory)
        self.proc = proc
        self._handle = None
        self._seq = 0

    @property
    def path(self) -> Path:
        return self.directory / f"events-{os.getpid()}.jsonl"

    def emit(self, kind: str, /, **fields) -> dict:
        """Append one validated event; returns the event dict.

        ``kind`` is positional-only so payload fields may use any name
        (e.g. ``fault_injected`` carries its own ``kind=`` field).
        """
        event = {
            "v": SCHEMA_VERSION,
            "ts": time.time(),
            "pid": os.getpid(),
            "proc": self.proc,
            "seq": self._seq,
            "type": kind,
        }
        event.update(fields)
        validate_event(event)
        handle = self._handle
        if handle is None:
            os.makedirs(self.directory, exist_ok=True)
            handle = self._handle = open(self.path, "a")
        handle.write(json.dumps(event, default=_jsonable) + "\n")
        # Flush per event: a hard-killed process (os._exit) keeps everything
        # it emitted; interleaving stays whole-line because each write is
        # one line.
        handle.flush()
        self._seq += 1
        return event

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ------------------------------------------------------------------ reading


def stream_files(directory: str | Path) -> list[Path]:
    """The per-process event files under ``directory``, sorted by name."""
    path = Path(directory)
    if not path.is_dir():
        return []
    return sorted(path.glob("events-*.jsonl"))


def iter_stream(path: Path, errors: list[str] | None = None):
    """Yield the events of one stream; malformed lines are recorded, not raised.

    A live ``tail`` may observe a partially written final line from a
    running process; recording the error (when ``errors`` is given) instead
    of raising keeps the monitor usable on a live directory while
    ``summary`` still surfaces every problem.
    """
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                    validate_event(event)
                except (ValueError, SchemaError) as exc:
                    if errors is not None:
                        errors.append(f"{path.name}:{number}: {exc}")
                    continue
                yield event
    except OSError as exc:
        if errors is not None:
            errors.append(f"{path.name}: unreadable: {exc}")


def read_events(
    directory: str | Path, errors: list[str] | None = None
) -> list[dict]:
    """All events under ``directory``, merged across streams by timestamp."""
    events: list[dict] = []
    for path in stream_files(directory):
        events.extend(iter_stream(path, errors))
    events.sort(key=lambda e: (e["ts"], e["pid"], e["seq"]))
    return events


def validate_directory(directory: str | Path) -> list[str]:
    """Every schema/parse error in the directory's streams (empty = valid)."""
    errors: list[str] = []
    for path in stream_files(directory):
        for _ in iter_stream(path, errors):
            pass
    return errors
