"""Reference digests for the benchmark's correctness gate.

Run from the root of a checkout::

    python3 perfbench/reference.py record --seeds 0-31
    python3 perfbench/reference.py check-event --seed 0

``record`` runs one untraced full-size repetition per workload and seed and
writes its output digest into ``perfbench/reference.json``; ``run.py``
compares every repetition against it.  Record again only when a change is
meant to alter the program's outputs.

``check-event`` validates the workloads themselves: it runs each workload
scaled down on its own backend and on the reference ``event`` backend and
exits 1 unless every pair of digests agrees.  The sweep's own-backend run
goes through its partly warm store, so cached and recomputed cells are
both checked against the event backend.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import REFERENCE, ROOT, RepetitionError, child_env, load_benchmark, run_child


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def repetition(workload: str, seed: int, *extra: str) -> dict:
    """One prepared repetition in a private state directory."""
    state = ROOT / ".perfbench" / f"reference-{workload}-{seed}"
    shutil.rmtree(state, ignore_errors=True)
    (state / "tmp").mkdir(parents=True)
    try:
        env = child_env(state)
        base = ["--workload", workload, "--seed", str(seed), "--state", str(state), *extra]
        run_child([*base, "--prepare"], env)
        record, _ = run_child(base, env)
        return record
    finally:
        shutil.rmtree(state, ignore_errors=True)


def record(workloads: list[str], seeds: list[int]) -> int:
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    for workload in workloads:
        digests = reference.setdefault(workload, {})
        for seed in seeds:
            digests[str(seed)] = repetition(workload, seed)["digest"]
            print(f"{workload} seed {seed}: {digests[str(seed)]}", flush=True)
        with open(REFERENCE, "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


def check_event(workloads: list[str], seed: int) -> int:
    mismatches = 0
    for workload in workloads:
        own = repetition(workload, seed, "--size", "small")["digest"]
        event = repetition(workload, seed, "--size", "small", "--backend", "event")["digest"]
        verdict = "agree" if own == event else "DIFFER"
        mismatches += own != event
        print(f"{workload} (small, seed {seed}): own {own[:16]} event {event[:16]} {verdict}")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    names = [w["name"] for w in load_benchmark()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    record_parser = commands.add_parser("record")
    record_parser.add_argument("--seeds", default="0-31")
    check_parser = commands.add_parser("check-event")
    check_parser.add_argument("--seed", type=int, default=0)
    for sub in (record_parser, check_parser):
        sub.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    try:
        if args.command == "record":
            return record(args.workloads, parse_seeds(args.seeds))
        return check_event(args.workloads, args.seed)
    except RepetitionError as exc:
        print(f"reference: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
