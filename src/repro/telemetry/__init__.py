"""Unified run telemetry: spans, structured events, fleet monitor.

Three pieces:

* :mod:`repro.telemetry.core` — fixed-bucket histograms and the
  per-process :func:`get_telemetry` singleton, compiled to a no-op
  (``None``) when ``REPRO_TELEMETRY_DIR`` is unset;
* :mod:`repro.telemetry.events` — the versioned JSONL event log, one file
  per process, merged by the reader;
* ``python -m repro.telemetry tail|summary|report`` — the monitor CLI
  (:mod:`repro.telemetry.__main__`).

See ``README.md`` § Observability for the env vars and event schema.
"""

from repro.telemetry.core import (
    BARRIER_WAIT_BOUNDS_S,
    Histogram,
    TELEMETRY_DIR_ENV,
    Telemetry,
    get_telemetry,
    merge_histogram_payloads,
    record_run_summary,
    scoped_telemetry_dir,
    set_proc_label,
    set_telemetry_dir,
    take_run_summary,
    telemetry_dir,
    telemetry_enabled,
)
from repro.telemetry.events import (
    EVENT_TYPES,
    EventLog,
    SCHEMA_VERSION,
    SchemaError,
    read_events,
    validate_directory,
    validate_event,
)

__all__ = [
    "BARRIER_WAIT_BOUNDS_S",
    "EVENT_TYPES",
    "EventLog",
    "Histogram",
    "SCHEMA_VERSION",
    "SchemaError",
    "TELEMETRY_DIR_ENV",
    "Telemetry",
    "get_telemetry",
    "merge_histogram_payloads",
    "read_events",
    "record_run_summary",
    "scoped_telemetry_dir",
    "set_proc_label",
    "set_telemetry_dir",
    "take_run_summary",
    "telemetry_dir",
    "telemetry_enabled",
    "validate_directory",
    "validate_event",
]
