"""Lightweight per-phase run profiling (``REPRO_PROFILE=1``).

The slot driver of both batched backends accumulates wall time into named
phases — sampling / physics / reward / recorder / delays / the broadcast of
a span in which every active device is frozen (``fused_window``), plus
bus-exchange and checkpointing on the sharded path — and emits one JSON
object per run when the environment opts in:

* ``REPRO_PROFILE=1`` enables the hook (default off: the executors carry a
  single ``is None`` check per phase, nothing else);
* ``REPRO_PROFILE_PATH=<file>`` appends one JSON line per run there instead
  of printing to stderr (append mode, so multi-run experiments and sharded
  worker processes interleave whole lines).

The payload shape::

    {"tag": "vectorized", "scenario": "...", "devices": N, "slots": T,
     "seconds": {"sampling": ..., "physics": ...}, "share": {...},
     "total_seconds": ..., "device_slots_per_second": ...,
     "provenance": {"cpu_count": ..., "numpy_version": ...}}

``slots`` counts the slots the run (or the resumed attempt) executed.

The timers are also the span source for the telemetry layer
(:mod:`repro.telemetry`): when ``REPRO_TELEMETRY_DIR`` is set,
:func:`profile_run` returns a live profile even without ``REPRO_PROFILE``,
and :meth:`PhaseProfile.emit` additionally appends a ``phase_profile``
event to the process's telemetry stream.  The ``REPRO_PROFILE`` env vars
and payload shape keep working verbatim either way.

Future perf work should trust these numbers instead of guessing.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.telemetry.core import get_telemetry, record_run_summary, telemetry_enabled

PROFILE_ENV = "REPRO_PROFILE"
PROFILE_PATH_ENV = "REPRO_PROFILE_PATH"

#: Canonical phase names, in reporting order.
PHASES = (
    "sampling",
    "physics",
    "reward",
    "recorder",
    "delays",
    "fused_window",
    "bus_exchange",
    "checkpoint",
    "other",
)


def profiling_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` opts this process into phase timing."""
    return os.environ.get(PROFILE_ENV, "") not in ("", "0", "false", "no")


def run_provenance() -> dict:
    """Toolchain provenance for emitted profiles and bench records.

    Pins down what produced the numbers — core count and numpy version —
    so profile lines and the floor runner's records from different
    machines compare like with like.
    """
    import numpy

    return {"cpu_count": os.cpu_count(), "numpy_version": numpy.__version__}


class PhaseProfile:
    """Wall-time accumulator for one run's execution phases.

    Explicit ``perf_counter`` bracketing (``t = now(); ...; add(name, t)``)
    instead of context managers: the hot loop pays two attribute lookups and
    one float add per phase, no generator/``with`` machinery.
    """

    __slots__ = ("tag", "seconds", "started", "slots", "devices")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.seconds: dict[str, float] = {}
        self.started = time.perf_counter()
        self.slots = 0
        self.devices = 0

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def add(self, phase: str, since: float) -> float:
        """Charge ``now - since`` to ``phase``; returns the new timestamp."""
        now = time.perf_counter()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + (now - since)
        return now

    def payload(self, scenario: str | None = None, **extra) -> dict:
        total = time.perf_counter() - self.started
        tracked = sum(self.seconds.values())
        # Shares are computed from the *unrounded* per-phase seconds over a
        # denominator that covers every charged second: normally wall total
        # (with the untracked remainder clamped into "other"), but when
        # tracked time exceeds wall time (timer overlap / clock jitter) the
        # tracked sum, so shares always lie in [0, 1] and sum to ~1 instead
        # of the old rounded-numerator / raw-total mix.
        raw = {name: self.seconds[name] for name in PHASES if name in self.seconds}
        raw["other"] = raw.get("other", 0.0) + max(total - tracked, 0.0)
        denom = max(total, tracked)
        seconds = {name: round(value, 6) for name, value in raw.items()}
        share = {
            name: round(value / denom, 4) if denom > 0 else 0.0
            for name, value in raw.items()
        }
        device_slots = self.devices * self.slots
        payload = {
            "tag": self.tag,
            "scenario": scenario,
            "devices": self.devices,
            "slots": self.slots,
            "total_seconds": round(total, 6),
            "seconds": seconds,
            "share": share,
            "device_slots_per_second": (
                round(device_slots / total, 1) if total > 0 else None
            ),
            "provenance": run_provenance(),
        }
        payload.update(extra)
        return payload

    def emit(self, scenario: str | None = None, **extra) -> dict:
        """Serialise the breakdown to its enabled sinks.

        ``REPRO_PROFILE`` writes the JSON line to stderr or
        ``REPRO_PROFILE_PATH`` exactly as before; ``REPRO_TELEMETRY_DIR``
        appends the same payload as a ``phase_profile`` event.  Either way
        the payload is recorded as the process's last run summary so the
        run registry can attach it to ``meta.json``.
        """
        payload = self.payload(scenario, **extra)
        if profiling_enabled():
            line = json.dumps(payload, sort_keys=True)
            path = os.environ.get(PROFILE_PATH_ENV)
            if path:
                with open(path, "a") as handle:
                    handle.write(line + "\n")
            else:
                print(f"REPRO_PROFILE {line}", file=sys.stderr)
        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.event("phase_profile", **payload)
        record_run_summary(payload)
        return payload


def profile_run(tag: str) -> PhaseProfile | None:
    """A fresh :class:`PhaseProfile` when a sink wants one, else ``None``.

    Live when either ``REPRO_PROFILE`` (stderr/file JSON lines) or
    ``REPRO_TELEMETRY_DIR`` (``phase_profile`` events) is set — the
    telemetry layer re-bases on these spans rather than duplicating the
    executors' timing brackets.
    """
    if profiling_enabled() or telemetry_enabled():
        return PhaseProfile(tag)
    return None
