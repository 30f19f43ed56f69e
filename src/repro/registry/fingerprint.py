"""Canonical run fingerprints: the cache key of the run registry.

A (config × seed) cell is addressed by a SHA-256 over a *canonical* JSON
description of everything that determines its reduced result bit-for-bit:

* the scenario — networks, devices (presence windows, mobility schedules),
  coverage map, gain and delay models, horizon, slot duration, rate cap;
* the seeding scheme — ``SeedSequence(entropy=base_seed, spawn_key=(i,))``,
  exactly what :func:`repro.sim.runner.run_many` derives for run ``i``;
* the recording options (``record_probabilities`` changes RNG consumption
  on some paths and the reducer's available inputs, so it is hash-relevant);
* the reducer identity and its constructor parameters (the stored artifact
  *is* the reducer's ``map`` payload).

Deliberately **excluded** are the execution knobs the equivalence suite
guarantees are result-neutral: ``backend``, ``workers``, ``shards`` and
the checkpoint cadence.  A payload computed by the event backend on one
worker is served back to a sharded 16-worker sweep of the same cell.

Canonicalization rules (:func:`describe`): mappings become sorted key/value
pair lists (insertion order never leaks into the hash), sets are sorted,
dataclasses serialize by field, enums by qualified name, ndarrays by
dtype/shape/content digest, functions by module-qualified name.  Private
(``_``-prefixed) attributes are skipped for plain objects: they are lazy
caches on this codebase's model classes, and no model keeps canonical
state in one.

Provenance (not part of the cell key) is a **code fingerprint** over the
result-affecting source tree: the game physics, core loop, policy
algorithms, analysis/reducers and the top-level sim modules (seed
derivation lives there).  Execution tiers with an equivalence guarantee —
backends and the sharded engine — are excluded, so a backend refactor
does not invalidate every cached artifact, while a physics or policy
change refuses loudly on load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping, Set
from enum import Enum
from pathlib import Path
from typing import Any

import numpy as np

#: Bump when the canonical description schema changes (invalidates all keys).
FINGERPRINT_VERSION = 1

#: Result-affecting source roots, relative to the ``repro`` package
#: directory.  Directories are walked recursively; plain entries match the
#: immediate ``*.py`` files only.
_CODE_ROOTS: tuple[tuple[str, bool], ...] = (
    ("game", True),
    ("core", True),
    ("algorithms", True),
    ("analysis", True),
    ("sim", False),  # runner/scenario/metrics/...; backends & sharded excluded
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def describe(obj: Any) -> Any:
    """Canonical JSON-able description of a config object (see module doc)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)  # repr round-trips; json renders it deterministically
    if isinstance(obj, np.generic):
        return describe(obj.item())
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": {
                "dtype": str(obj.dtype),
                "shape": list(obj.shape),
                "sha256": hashlib.sha256(
                    np.ascontiguousarray(obj).tobytes()
                ).hexdigest(),
            }
        }
    if isinstance(obj, Enum):
        return {"__enum__": f"{type(obj).__qualname__}.{obj.name}"}
    if isinstance(obj, Mapping):
        items = [[describe(key), describe(value)] for key, value in obj.items()]
        return {"__items__": sorted(items, key=_sort_key)}
    if isinstance(obj, Set):
        return {"__set__": sorted((describe(item) for item in obj), key=_sort_key)}
    if isinstance(obj, (list, tuple)):
        return [describe(item) for item in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__class__": _qualname(type(obj)),
            "fields": {
                field.name: describe(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if callable(obj) and hasattr(obj, "__qualname__"):
        return {"__function__": _qualname(obj)}
    # Plain config object: public attributes only (underscore-prefixed
    # attributes are lazy caches on this codebase's model classes).
    state = {
        key: describe(value)
        for key, value in sorted(vars(obj).items())
        if not key.startswith("_")
    }
    return {"__class__": _qualname(type(obj)), "state": state}


def _qualname(obj) -> str:
    return f"{obj.__module__}.{obj.__qualname__}"


def _sort_key(described: Any) -> str:
    """Total order over canonical descriptions (for maps and sets)."""
    return json.dumps(described, sort_keys=True)


def canonical_run_config(
    scenario,
    *,
    base_seed: int,
    run_index: int,
    record_probabilities: bool,
    reducer,
) -> dict:
    """The canonical description whose hash addresses one (config × seed) cell."""
    return {
        "fingerprint_version": FINGERPRINT_VERSION,
        "scenario": describe(scenario),
        "seeding": {
            "scheme": "seedsequence-spawn",
            "base_seed": int(base_seed),
            "run_index": int(run_index),
        },
        "record_probabilities": bool(record_probabilities),
        "reducer": describe(reducer),
    }


def config_fingerprint(config: dict) -> str:
    """SHA-256 of a canonical run config (hex digest)."""
    return _digest(json.dumps(config, sort_keys=True, separators=(",", ":")))


@dataclasses.dataclass(frozen=True)
class CellKey:
    """Address and human-readable summary of one (config × seed) cell."""

    fingerprint: str
    summary: dict


def _cell_summary(scenario, reducer, base_seed, run_index, record_probabilities):
    return {
        "scenario": scenario.name,
        "num_devices": len(scenario.device_specs),
        "horizon_slots": scenario.horizon_slots,
        "policies": sorted({spec.policy for spec in scenario.device_specs}),
        "base_seed": int(base_seed),
        "run_index": int(run_index),
        "seed_label": int(base_seed) + int(run_index),
        "record_probabilities": bool(record_probabilities),
        "reducer": type(reducer).__name__,
    }


def grid_keys(
    scenario,
    *,
    base_seed: int,
    runs: int,
    record_probabilities: bool,
    reducer,
) -> list[CellKey]:
    """Cell keys for runs ``0..runs-1`` of a scenario.

    The scenario is canonicalized once — only the run index varies between
    cells, so a 10k-run sweep pays for one scenario description, not 10k.
    """
    config = canonical_run_config(
        scenario,
        base_seed=base_seed,
        run_index=0,
        record_probabilities=record_probabilities,
        reducer=reducer,
    )
    keys = []
    for run_index in range(runs):
        config["seeding"]["run_index"] = run_index
        keys.append(
            CellKey(
                fingerprint=config_fingerprint(config),
                summary=_cell_summary(
                    scenario, reducer, base_seed, run_index, record_probabilities
                ),
            )
        )
    return keys


def cell_key(
    scenario,
    *,
    base_seed: int,
    run_index: int,
    record_probabilities: bool,
    reducer,
) -> CellKey:
    """The cell key of a single run (see :func:`grid_keys`)."""
    config = canonical_run_config(
        scenario,
        base_seed=base_seed,
        run_index=run_index,
        record_probabilities=record_probabilities,
        reducer=reducer,
    )
    return CellKey(
        fingerprint=config_fingerprint(config),
        summary=_cell_summary(
            scenario, reducer, base_seed, run_index, record_probabilities
        ),
    )


def result_affecting_sources() -> list[Path]:
    """The source files whose content enters the code fingerprint."""
    import repro

    package_root = Path(repro.__file__).parent
    files: set[Path] = set()
    for entry, recursive in _CODE_ROOTS:
        base = package_root / entry
        if not base.is_dir():
            continue
        pattern = "**/*.py" if recursive else "*.py"
        files.update(base.glob(pattern))
    return sorted(files)


_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over the result-affecting source files (cached per process)."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        package_root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in result_affecting_sources():
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT
