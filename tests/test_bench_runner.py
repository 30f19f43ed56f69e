"""The floor runner ``benchmarks/bench_backend_speedup.py``.

One flag check, one gate check and one payload shape serve every suite in
its ``SUITES`` table; CI's commands must keep resolving through that table,
and every tracked ``BENCH_*.json`` record has the one shape.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_runner():
    path = ROOT / "benchmarks" / "bench_backend_speedup.py"
    spec = importlib.util.spec_from_file_location("bench_backend_speedup", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = _load_runner()

TOP_LEVEL_KEYS = {
    "suite",
    "scenario",
    "cpu_count",
    "numpy_version",
    "rows",
    "gates",
    "meets_floor",
}
GATE_KEYS = {"name", "value", "bound", "threshold", "applicable", "passed"}


def assert_one_shape(payload: dict) -> None:
    suite = runner.SUITES[payload["suite"]]
    assert set(payload) - {"megascale"} == TOP_LEVEL_KEYS
    assert isinstance(payload["scenario"], str)
    assert payload["rows"] and all(isinstance(row, dict) for row in payload["rows"])
    assert [gate["name"] for gate in payload["gates"]] == [g.name for g in suite.gates]
    for gate in payload["gates"]:
        assert set(gate) == GATE_KEYS
        assert gate["bound"] in ("min", "max", "true")
        assert (gate["passed"] is None) == (not gate["applicable"])
    assert payload["meets_floor"] == all(
        gate["passed"] is not False for gate in payload["gates"]
    )


def _takes(suite, dest: str) -> bool:
    keys = {dest, "policy"} if dest == "policies" else {dest}
    return bool(keys & set(suite.flags))


#: A value each flag parses.
FLAG_VALUES = {"policies": "exp3", "attach_megascale": "megascale.json"}

UNTAKEN_FLAGS = [
    (name, dest)
    for name, suite in runner.SUITES.items()
    for dest in runner.FLAGS
    if not _takes(suite, dest)
]


class TestFlagCheck:
    @pytest.mark.parametrize("suite, dest", UNTAKEN_FLAGS)
    def test_flag_the_suite_does_not_take_exits_2(self, suite, dest, capsys):
        flag = "--" + dest.replace("_", "-")
        with pytest.raises(SystemExit) as exited:
            runner.parse_args(["--suite", suite, flag, FLAG_VALUES.get(dest, "1")])
        assert exited.value.code == 2
        assert f"{flag} does not apply to --suite {suite}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite", [name for name, s in runner.SUITES.items() if "policy" in s.flags]
    )
    def test_single_policy_suite_takes_one_policy(self, suite, capsys):
        with pytest.raises(SystemExit) as exited:
            runner.parse_args(["--suite", suite, "--policies", "exp3", "greedy"])
        assert exited.value.code == 2
        assert "exactly one --policies entry" in capsys.readouterr().err
        _, options, _ = runner.parse_args(["--suite", suite, "--policies", "greedy"])
        assert options == {**runner.SUITES[suite].flags, "policy": "greedy"}

    def test_defaults_come_from_the_table(self):
        assert runner.parse_args([]) == (
            "backend",
            runner.SUITES["backend"].flags,
            None,
        )


KERNELS = (
    "--suite kernels --policies exp3 --devices 4 --slots 30 --repeats 1 --floor 1e9"
).split()


class TestGateCheck:
    @pytest.mark.parametrize("cpus", [2, 1])
    def test_speed_gate_applies_from_its_core_count(
        self, cpus, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / "kernels.json"
        code = runner.main([*KERNELS, "--json", str(out)])
        payload = json.loads(out.read_text())
        assert_one_shape(payload)
        (gate,) = payload["gates"]
        assert (gate["name"], gate["threshold"]) == ("kernel_speedup", 1e9)
        if cpus == 2:
            assert code == 1 and gate["applicable"] and gate["passed"] is False
        else:
            assert code == 0 and not gate["applicable"] and gate["passed"] is None
            assert "not applicable: 1 core(s), needs 2" in capsys.readouterr().out


TINY = {
    "kernels": "--policies exp3 --devices 4 --slots 30 --repeats 1",
    "churn": "--devices 6 --repeats 1",
    "results": "--devices 6 --slots 40 --runs 2",
    "stack": "--policies exp3 --devices 3 --slots 20 --runs 2 --repeats 1",
    "registry": "--devices 4 --slots 20 --runs 1",
}


@pytest.mark.parametrize("suite", sorted(TINY))
def test_tiny_suite_payload_has_the_one_shape(suite, tmp_path):
    out = tmp_path / f"{suite}.json"
    code = runner.main(["--suite", suite, *TINY[suite].split(), "--json", str(out)])
    payload = json.loads(out.read_text())
    assert payload["suite"] == suite
    assert_one_shape(payload)
    assert code == (0 if payload["meets_floor"] else 1)


def ci_commands() -> list[list[str]]:
    """The arguments of every floor-runner command in CI.

    The workflow is read as text (CI's tier-1 job has no YAML parser); a
    command continues over the following lines of its folded block, which
    share its indentation.
    """
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    commands = []
    for index, line in enumerate(lines):
        if "bench_backend_speedup.py" not in line:
            continue
        indent = len(line) - len(line.lstrip())
        words = line.split("bench_backend_speedup.py", 1)[1].split()
        for follow in lines[index + 1 :]:
            if not follow.strip() or len(follow) - len(follow.lstrip()) != indent:
                break
            words += follow.split()
        commands.append(words)
    return commands


def test_ci_commands_resolve_through_the_flag_table():
    """A table edit that would break a CI step fails here, before CI runs."""
    commands = ci_commands()
    assert len(commands) == 9
    suites = [runner.parse_args(argv)[0] for argv in commands]
    assert sorted(suites) == sorted(runner.SUITES)


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name
)
def test_tracked_bench_record_has_the_one_shape(path):
    assert_one_shape(json.loads(path.read_text()))
