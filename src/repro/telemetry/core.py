"""Telemetry core: the event hook and fixed-bucket histograms.

Enabled iff ``REPRO_TELEMETRY_DIR`` is set — :func:`get_telemetry` then
returns the process's :class:`Telemetry` instance (its event log);
otherwise it returns ``None``, so every instrumented hot loop keeps the
executors' single-``is None``-check discipline::

    tele = get_telemetry()
    ...
    if tele is not None:
        tele.event("progress", ...)

A histogram observation is allocation-free in the hot loop: one
``bisect`` over a fixed bounds tuple plus an int add — no dict churn, no
string formatting, nothing emitted until an event snapshots it.

Worker processes inherit ``REPRO_TELEMETRY_DIR`` through the environment
and lazily open their own ``events-<pid>.jsonl``, so a sharded or pooled
run produces one stream per process; :mod:`repro.telemetry.__main__`
merges them.
"""

from __future__ import annotations

import contextlib
import os
from bisect import bisect_left

from repro.telemetry.events import EventLog

#: Environment variable enabling telemetry: the directory event streams
#: (one JSONL file per process) are written into.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"

#: Fixed bucket upper bounds (seconds) for barrier-wait histograms: spans
#: sub-millisecond lockstep waits through multi-second straggler stalls.
BARRIER_WAIT_BOUNDS_S = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)


def telemetry_dir() -> str | None:
    """The configured telemetry directory, or ``None`` when disabled."""
    return os.environ.get(TELEMETRY_DIR_ENV) or None


def telemetry_enabled() -> bool:
    return telemetry_dir() is not None


def set_telemetry_dir(directory: str | os.PathLike | None) -> None:
    """Point telemetry at ``directory`` (``None`` disables it).

    Sets the environment variable so worker processes — ``run_many`` pool
    workers, sharded shard workers — inherit the setting, and resets the
    process-local instance so the change takes effect immediately.
    """
    if directory is None:
        os.environ.pop(TELEMETRY_DIR_ENV, None)
    else:
        os.environ[TELEMETRY_DIR_ENV] = str(directory)
    _replace_instance(None, None)


@contextlib.contextmanager
def scoped_telemetry_dir(directory: str | os.PathLike | None):
    """Point telemetry at ``directory`` for the ``with`` block only.

    ``None`` leaves the setting alone.  On exit the caller's
    ``REPRO_TELEMETRY_DIR`` comes back as it was, set or unset, so a
    directory one experiment asked for never collects a later one's events.
    """
    if directory is None:
        yield
        return
    previous = os.environ.get(TELEMETRY_DIR_ENV)
    set_telemetry_dir(directory)
    try:
        yield
    finally:
        set_telemetry_dir(previous)


# --------------------------------------------------------------- histograms


class Histogram:
    """Fixed-bucket histogram: ``len(bounds)+1`` buckets, allocation-free.

    ``bounds`` are ascending *inclusive* upper bounds; an observation lands
    in the first bucket whose bound is >= the value (the final bucket is
    overflow).  ``observe`` costs one :func:`bisect.bisect_left` over a
    tuple plus integer adds — safe inside per-slot loops.
    """

    __slots__ = ("bounds", "counts", "count", "total", "max")

    def __init__(self, bounds=BARRIER_WAIT_BOUNDS_S) -> None:
        self.bounds = tuple(float(bound) for bound in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def payload(self) -> dict:
        """JSON-ready snapshot: bounds, per-bucket counts, summary stats."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": round(self.total, 6),
            "max": round(self.max, 6),
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
        }


def merge_histogram_payloads(payloads) -> dict | None:
    """Merge same-bounds histogram snapshots (the monitor's cross-worker view)."""
    merged: dict | None = None
    for payload in payloads:
        if merged is None:
            merged = {
                "bounds": list(payload["bounds"]),
                "counts": list(payload["counts"]),
                "count": payload["count"],
                "total": payload["total"],
                "max": payload["max"],
            }
            continue
        if list(payload["bounds"]) != merged["bounds"]:
            continue  # incompatible layout (schema drift): skip, don't lie
        merged["counts"] = [
            a + b for a, b in zip(merged["counts"], payload["counts"])
        ]
        merged["count"] += payload["count"]
        merged["total"] += payload["total"]
        merged["max"] = max(merged["max"], payload["max"])
    if merged is not None:
        merged["mean"] = (
            round(merged["total"] / merged["count"], 6)
            if merged["count"]
            else 0.0
        )
    return merged


# ----------------------------------------------------------------- registry


class Telemetry:
    """One process's telemetry surface: its event stream."""

    def __init__(self, directory: str, proc: str | None = None) -> None:
        self.directory = directory
        self.proc = proc or f"pid{os.getpid()}"
        self.log = EventLog(directory, self.proc)

    def event(self, kind: str, /, **fields) -> dict:
        return self.log.emit(kind, **fields)


_INSTANCE: Telemetry | None = None
_INSTANCE_KEY: tuple[int, str] | None = None


def get_telemetry() -> Telemetry | None:
    """The process's :class:`Telemetry`, or ``None`` when disabled.

    Keyed by ``(pid, directory)`` so forked workers open their own stream
    instead of inheriting the parent's file handle and sequence counter.
    """
    directory = os.environ.get(TELEMETRY_DIR_ENV)
    if not directory:
        return None
    key = (os.getpid(), directory)
    if _INSTANCE_KEY != key:
        _replace_instance(Telemetry(directory), key)
    return _INSTANCE


def _replace_instance(instance: Telemetry | None, key) -> None:
    """Install ``instance``, closing the event log of the one it replaces.

    Only a log this process opened is closed: a forked worker's inherited
    instance holds its parent's handle, which the parent still writes to.
    """
    global _INSTANCE, _INSTANCE_KEY
    if _INSTANCE is not None and _INSTANCE_KEY[0] == os.getpid():
        _INSTANCE.log.close()
    _INSTANCE = instance
    _INSTANCE_KEY = key


def set_proc_label(label: str) -> None:
    """Name this process's event stream (e.g. ``"shard-worker1"``)."""
    telemetry = get_telemetry()
    if telemetry is not None:
        telemetry.proc = label
        telemetry.log.proc = label


# -------------------------------------------------------- run summary relay
#
# The registry (satellite: telemetry summaries in meta.json) wants "where
# did this cached run spend its time" without coupling store.py to the
# executors: the profiling layer records each finished run's phase payload
# here, and RunStore.store() takes it when committing the artifact the run
# just produced.

_LAST_RUN_SUMMARY: dict | None = None


def record_run_summary(payload: dict) -> None:
    global _LAST_RUN_SUMMARY
    _LAST_RUN_SUMMARY = dict(payload)


def take_run_summary() -> dict | None:
    """The last recorded run summary, consumed (one store per run)."""
    global _LAST_RUN_SUMMARY
    payload = _LAST_RUN_SUMMARY
    _LAST_RUN_SUMMARY = None
    return payload
