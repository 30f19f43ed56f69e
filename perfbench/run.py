"""Benchmark entry point: one workload, repeated in fresh processes, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_figures --seed 0 --seconds 20 --trace 0

Each repetition is a new ``perfbench/rep.py`` process (set-up, timed
section, output digest), started with a scrubbed environment, until
``--seconds`` of repetitions have run (at least ``MIN_REPS``).

With ``--trace 0`` the end-to-end metrics are medians over the untraced
repetitions.  Their times (``wall_s``, ``setup_s`` and the rates derived
from ``wall_s``) are scaled to a reference machine speed: each
repetition's times are multiplied by ``calibrate.REFERENCE_ROUND_S`` over
the time per round of the reference loop played in slices through its
timed section, so a shared host speeding up or slowing down does not move
them (``large_population``, whose section runs in worker processes on
every core, is not scaled).  The unscaled medians are printed in the
table.  With ``--trace 1``
untraced and traced repetitions alternate; the per-layer metrics are
medians over the traced ones, unscaled (a span's time includes the loop
slices that fell inside it, about a tenth), and ``trace.overhead_frac`` is
the traced median scaled wall time over the untraced one, minus one.

Every repetition's output digest must equal the reference digest recorded
for this workload and seed in ``perfbench/reference.json`` (or, for a seed
without one, the digest of the other repetitions).  A mismatch or a crash
counts as a failed repetition and makes the exit status 1.  If no
repetition runs at all -- for instance because the program's sources are
missing -- nothing is printed on standard output and the status is 2.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it list every repetition, stamped with its provenance
(workload, seed, nproc, Python, NumPy, numba, git commit, source digest),
and a table of every metric with its unit, ``failed_frac`` included.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_ROUND_S
from layers import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Fewest repetitions of each kind (untraced, traced) a run makes.
MIN_REPS = 3
#: No repetition starts once this much of the run has gone.
HARD_LIMIT_S = 110.0
REP_TIMEOUT_S = 60.0

#: Environment variables that would change what the program does.
SCRUBBED = ("REPRO_COMPILED", "REPRO_TELEMETRY_DIR", "REPRO_RUN_CACHE")
SCRUBBED_PREFIXES = ("REPRO_PROFILE", "REPRO_BENCH_")


class RepetitionError(RuntimeError):
    """A repetition process failed or printed no record."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_env(state: Path) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in SCRUBBED and not key.startswith(SCRUBBED_PREFIXES)
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(state / "tmp")
    for threads in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[threads] = "1"
    return env


def run_child(arguments: list[str], env: dict) -> tuple[dict, float]:
    """Run ``rep.py`` once; returns its record and the start stamp."""
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *arguments],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {REP_TIMEOUT_S:.0f} s"
    finally:
        # The repetition's own workers share its process group; none may
        # outlive it, whether it finished, crashed or timed out.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-6:])
        raise RepetitionError(f"exit status {process.returncode}: {tail}")
    return json.loads(lines[-1]), started


def provenance(workload: str, seed: int) -> dict:
    commit = None  # a plain checkout: the source digest identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0")
        source.update(path.read_bytes())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def scaled(rep: dict, name: str) -> float:
    """A repetition's time at the reference machine speed (``calibrate.py``).

    A workload that is not ``calibrated`` has no loop time: its times are
    reported as measured.
    """
    if "round_s" not in rep:
        return rep[name]
    return rep[name] * REFERENCE_ROUND_S / rep["round_s"]


def reference_digest(workload: str, seed: int) -> str | None:
    with open(REFERENCE) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def run_repetitions(args, state: Path) -> list[dict]:
    """Repetitions until ``--seconds`` are used (and ``MIN_REPS`` of each kind)."""
    env = child_env(state)
    (state / "tmp").mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--state", str(state)]
    begun = time.monotonic()
    run_child([*base, "--prepare"], env)
    deadline = time.monotonic() + args.seconds
    kinds = (False, True) if args.trace else (False,)
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        traced = kinds[len(reps) % len(kinds)]
        rep_begun = time.monotonic()
        try:
            record, started = run_child([*base, "--trace"] if traced else base, env)
            record["setup_s"] = record.pop("setup_done") - started
        except (RepetitionError, ValueError) as exc:
            record = {"error": str(exc)}
        record["traced"] = traced
        reps.append(record)
        now = time.monotonic()
        durations.append(now - rep_begun)
        enough = len(reps) >= MIN_REPS * len(kinds)
        next_ends = now + statistics.median(durations)
        if now - begun > HARD_LIMIT_S or (enough and next_ends > deadline):
            return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark = load_benchmark()
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program sources under src/repro", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    try:
        reps = run_repetitions(args, state)
    except RepetitionError as exc:
        print(f"perfbench: preparing {args.workload} failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(state, ignore_errors=True)

    ran = [rep for rep in reps if "error" not in rep]
    untraced = [rep for rep in ran if not rep["traced"]]
    traced = [rep for rep in ran if rep["traced"]]
    if not untraced or (args.trace and not traced):
        for rep in reps:
            print(f"perfbench: {rep['error']}", file=sys.stderr)
        return 2

    recorded = reference_digest(args.workload, args.seed)
    # Without a recorded reference the repetitions must agree with each other.
    expected = recorded or untraced[0]["digest"]
    failed = sum(rep.get("digest") != expected for rep in reps)
    stamp = provenance(args.workload, args.seed)
    for index, rep in enumerate(reps, start=1):
        print(json.dumps({"rep": index, **rep, **stamp}))
    per_rep = {
        "wall_s": lambda rep: scaled(rep, "wall_s"),
        "device_slots_per_s": lambda rep: rep["device_slots"] / scaled(rep, "wall_s"),
        "runs_per_s": lambda rep: rep["runs"] / scaled(rep, "wall_s"),
        "peak_rss_mb": lambda rep: rep["peak_rss_mb"],
        "setup_s": lambda rep: scaled(rep, "setup_s"),
    }
    end_to_end = {
        name: statistics.median(map(value, untraced))
        for name, value in per_rep.items()
    }
    print(
        f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
        f"{failed} failed; digests compared with "
        f"{'the recorded reference' if recorded else 'each other (no reference recorded)'}"
    )
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for name, value in end_to_end.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for name in ("wall_s", "setup_s"):
        raw = statistics.median(rep[name] for rep in untraced)
        print(f"  {'unscaled ' + name:<28} {raw:>16.6g} s")
    if "round_s" in untraced[0]:
        loop = statistics.median(rep["round_s"] for rep in untraced)
        print(f"  {'reference loop round':<28} {loop:>16.6g} s (reference {REFERENCE_ROUND_S:g} s)")
    print(f"  {'failed_frac':<28} {failed / len(reps):>16.6g} ratio ({failed}/{len(reps)})")

    metrics = {
        name: {"value": end_to_end[name], "unit": units[name]}
        for name in (m["name"] for m in benchmark["end_to_end"])
    }
    if args.trace:
        layers = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_frac"] = (
            statistics.median(scaled(rep, "wall_s") for rep in traced)
            / end_to_end["wall_s"]
            - 1.0
        )
        for name in (m["name"] for m in benchmark["per_layer"]):
            e2e, where = LAYER_METRICS[name]
            print(
                f"  {name:<28} {layers[name]:>16.6g} {units[name]:<6} "
                f"moves {e2e} on {where}"
            )
        metrics = {
            name: {"value": layers[name], "unit": units[name]}
            for name in (m["name"] for m in benchmark["per_layer"])
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(reps),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
