"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition pays
its own imports and one-time lazy costs (they land in ``setup_s``), and the
peak RSS it reports is this process's own high-water mark::

    python3 perfbench/rep.py --workload NAME --seed N --state DIR [--trace]
    python3 perfbench/rep.py --workload NAME --seed N --state DIR --prepare

It prints one JSON record as its last line of output.  ``setup_done`` is a
``time.monotonic()`` stamp; the parent subtracts its own stamp taken just
before starting this process, so ``setup_s`` includes interpreter start-up.
``wall_s`` is the timed section's wall time less the slices of the
reference loop (``calibrate.py``) played inside it, ``loop_s`` the time of
those slices and ``round_s`` the loop's measured time per round (absent
for a workload that is not ``calibrated``: no slices are played).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """High-water RSS of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--state", required=True, type=Path)
    parser.add_argument("--size", default="full")
    parser.add_argument("--backend", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](
        args.seed, args.state, size=args.size, backend=args.backend
    )
    if args.prepare:
        workload.prepare()
        print(json.dumps({"prepared": args.workload}))
        return 0

    tracer = None
    telemetry_dir = args.state / "telemetry"
    if args.trace:
        from layers import Tracer

        from repro.telemetry import set_telemetry_dir

        # Only this repetition's event streams may be read back.
        shutil.rmtree(telemetry_dir, ignore_errors=True)
        set_telemetry_dir(telemetry_dir)
        tracer = Tracer()
        tracer.install()
    from calibrate import ReferenceLoop

    workload.setup()
    setup_done = time.monotonic()
    loop = ReferenceLoop()
    with loop if workload.calibrated else contextlib.nullcontext():
        started = time.perf_counter()
        output = workload.run()
        elapsed = time.perf_counter() - started

    record = {
        "wall_s": elapsed - loop.seconds,
        "setup_done": setup_done,
        "loop_s": loop.seconds,
    }
    if workload.calibrated:
        if not loop.rounds:  # a section shorter than one timer period
            loop.play()
        record["round_s"] = loop.round_s
    if tracer is not None:
        from layers import sharded_metrics

        record["layers"] = {
            **tracer.metrics(),
            **sharded_metrics(telemetry_dir, args.state / "checkpoints"),
        }
    record["peak_rss_mb"] = peak_rss_mb()
    workload.account(output)
    workload.check(output)
    record.update(
        device_slots=workload.device_slots,
        runs=workload.runs,
        digest=digest(workload.canonical(output)),
    )
    workload.cleanup()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
