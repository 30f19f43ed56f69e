"""The paper-figure bench scripts ``benchmarks/bench_*.py``.

At paper scale (``REPRO_BENCH_PAPER=1``) each script must run its driver
at the driver's own paper setting, ``paper_config()``: the figures differ
in runs and horizon, so one shared configuration simulates other work
than the paper reports.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    path
    for path in (ROOT / "benchmarks").glob("bench_*.py")
    if path.name != "bench_backend_speedup.py"
)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The scripts import ``conftest``, which under pytest is this suite's.
BENCH_CONFTEST = _load("bench_conftest", ROOT / "benchmarks" / "conftest.py")


class _Captured(Exception):
    """Raised by the stub benchmark in place of running the driver."""


class _StubBenchmark:
    def pedantic(self, target, args=(), **_):
        raise _Captured(target, args)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_paper_scale_runs_the_drivers_paper_config(path, monkeypatch):
    monkeypatch.setitem(sys.modules, "conftest", BENCH_CONFTEST)
    monkeypatch.setenv("REPRO_BENCH_PAPER", "1")
    script = _load(path.stem, path)
    (test,) = [value for name, value in vars(script).items() if name.startswith("test_")]
    with pytest.raises(_Captured) as captured:
        test(_StubBenchmark())
    target, (config,) = captured.value.args
    paper = importlib.import_module(target.__module__).paper_config()
    assert (config.runs, config.horizon_slots) == (paper.runs, paper.horizon_slots)
