"""Fleet monitor CLI: ``python -m repro.telemetry tail|summary|report``.

All three subcommands read the per-process JSONL streams under a telemetry
directory (``--dir``, default ``$REPRO_TELEMETRY_DIR``) and merge them by
timestamp:

* ``tail`` — print merged events as they arrive (``--follow`` to poll a
  live directory);
* ``summary`` — validate every stream against the schema and print
  per-type/per-process counts; exit 0 iff the log validates and contains
  at least one event;
* ``report`` — reconstruct the run: per-shard slot progress and
  device-slots/sec, phase shares, barrier-wait histogram, worker
  restarts, injected faults, checkpoint traffic, registry cache stats,
  and the execution paths taken (stacks of runs, cells kept solo and
  fallbacks, by type and reason).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter as TallyCounter
from collections import defaultdict

from repro.telemetry.core import (
    TELEMETRY_DIR_ENV,
    merge_histogram_payloads,
)
from repro.telemetry.events import (
    iter_stream,
    read_events,
    stream_files,
    validate_directory,
)


def _format_event(event: dict) -> str:
    payload = {
        key: value
        for key, value in event.items()
        if key not in ("v", "ts", "pid", "proc", "seq", "type")
    }
    stamp = time.strftime("%H:%M:%S", time.localtime(event["ts"]))
    body = " ".join(f"{key}={json.dumps(value)}" for key, value in payload.items())
    return f"{stamp} {event['proc']:<16} {event['type']:<18} {body}"


def cmd_tail(directory: str, args: argparse.Namespace, out) -> int:
    events = read_events(directory)
    if args.lines is not None:
        events = events[-args.lines :]
    for event in events:
        print(_format_event(event), file=out)
    if not args.follow:
        return 0
    # Follow mode: poll each stream from its current end, merging new
    # events as processes append them.  Good enough for a live fleet view;
    # per-file offsets mean we never re-parse history.
    offsets: dict = {path: path.stat().st_size for path in stream_files(directory)}
    deadline = (
        time.time() + args.max_seconds if args.max_seconds is not None else None
    )
    try:
        while deadline is None or time.time() < deadline:
            time.sleep(args.interval)
            fresh = []
            for path in stream_files(directory):
                start = offsets.get(path, 0)
                size = path.stat().st_size
                if size <= start:
                    continue
                with open(path) as handle:
                    handle.seek(start)
                    chunk = handle.read(size - start)
                # Only consume whole lines; a partial final line stays
                # buffered in the file for the next poll.
                consumed = chunk.rfind("\n") + 1
                offsets[path] = start + consumed
                for line in chunk[:consumed].splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        fresh.append(json.loads(line))
                    except ValueError:
                        continue
            fresh.sort(key=lambda e: (e.get("ts", 0), e.get("pid", 0), e.get("seq", 0)))
            for event in fresh:
                print(_format_event(event), file=out)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_summary(directory: str, out) -> int:
    errors = validate_directory(directory)
    events = read_events(directory)
    files = stream_files(directory)
    print(f"telemetry dir: {directory}", file=out)
    print(f"streams: {len(files)}  events: {len(events)}  schema errors: {len(errors)}", file=out)
    by_type = TallyCounter(event["type"] for event in events)
    for kind, count in sorted(by_type.items()):
        print(f"  {kind:<20} {count}", file=out)
    by_proc = TallyCounter(event["proc"] for event in events)
    if by_proc:
        print("processes:", file=out)
        for proc, count in sorted(by_proc.items()):
            print(f"  {proc:<20} {count} events", file=out)
    for error in errors:
        print(f"error: {error}", file=out)
    if errors:
        return 2
    if not events:
        print("no events found", file=out)
        return 1
    return 0


def build_report(events: list[dict]) -> dict:
    """Reconstruct a run from its merged event stream.

    Pure function of the event list so tests (and the registry inspector)
    can use it without touching the filesystem.
    """
    report: dict = {
        "events": len(events),
        "runs": [],
        "workers": {},
        "phase_seconds": defaultdict(float),
        "barrier_histograms": [],
        "barrier_timeouts": [],
        "restarts": [],
        "faults": [],
        "checkpoints": {"writes": 0, "write_seconds": 0.0, "commits": 0},
        "registry": TallyCounter(),
        "fused_window_reasons": TallyCounter(),
        "execution_paths": defaultdict(TallyCounter),
    }
    workers: dict = report["workers"]
    paths = report["execution_paths"]

    def worker_entry(key):
        entry = workers.get(key)
        if entry is None:
            entry = workers[key] = {
                "shards": None,
                "start_slot": None,
                "slot": None,
                "num_slots": None,
                "device_slots_per_second": None,
                "seconds": None,
                "done": False,
            }
        return entry

    for event in events:
        kind = event["type"]
        if kind in ("run_start", "run_end", "run_failed"):
            report["runs"].append(
                {
                    "type": kind,
                    "tag": event.get("tag"),
                    "ts": event["ts"],
                    **{
                        k: event[k]
                        for k in ("devices", "slots", "shards", "workers", "seconds",
                                  "device_slots_per_second", "error")
                        if k in event
                    },
                }
            )
        elif kind == "worker_start":
            entry = worker_entry(event["worker"])
            entry["shards"] = event["shards"]
            entry["start_slot"] = event["start_slot"]
            entry["done"] = False
        elif kind == "progress":
            entry = worker_entry(event["worker"])
            entry["slot"] = event["slot"]
            entry["num_slots"] = event["num_slots"]
            entry["device_slots_per_second"] = event["device_slots_per_second"]
        elif kind == "worker_end":
            entry = worker_entry(event["worker"])
            entry["slot"] = event["slots"]
            entry["num_slots"] = event["slots"]
            entry["seconds"] = event["seconds"]
            if "device_slots_per_second" in event:
                entry["device_slots_per_second"] = event["device_slots_per_second"]
            entry["done"] = True
        elif kind == "phase_profile":
            for name, seconds in event.get("seconds", {}).items():
                report["phase_seconds"][name] += seconds
        elif kind == "fused_windows":
            for reason, count in event.get("reasons", {}).items():
                report["fused_window_reasons"][reason] += count
        elif kind == "barrier_waits":
            histogram = event.get("histogram")
            if histogram:
                report["barrier_histograms"].append(histogram)
        elif kind == "barrier_timeout":
            report["barrier_timeouts"].append(
                {
                    "slot": event["slot"],
                    "phase": event["phase"],
                    "arrived": event["arrived"],
                    "missing": event["missing"],
                }
            )
        elif kind == "worker_restart":
            report["restarts"].append(
                {
                    "attempt": event["attempt"],
                    "error": event["error"],
                    "backoff_s": event["backoff_s"],
                    "ts": event["ts"],
                }
            )
        elif kind == "fault_injected":
            report["faults"].append(
                {
                    "kind": event["kind"],
                    "worker": event["worker"],
                    "slot": event["slot"],
                }
            )
        elif kind == "checkpoint_write":
            report["checkpoints"]["writes"] += 1
            report["checkpoints"]["write_seconds"] += event["seconds"]
        elif kind == "checkpoint_commit":
            report["checkpoints"]["commits"] += 1
        elif kind == "registry":
            report["registry"][event["op"]] += 1
        elif kind == "run_stack":
            stacked = paths[kind]
            stacked["stacks"] += 1
            stacked["runs"] += event["runs"]
            stacked["rows"] += event["rows"]
        elif kind == "run_solo":
            paths[kind][event["reason"]] += 1
        elif kind == "one_shard_fallback":
            paths[kind][event["gain_model"]] += 1
        elif kind == "path_fallback":
            paths[kind][f"{event['kind']}: {event['reason']}"] += 1

    total = sum(report["phase_seconds"].values())
    report["phase_share"] = {
        name: round(seconds / total, 4)
        for name, seconds in sorted(report["phase_seconds"].items())
        if total > 0
    }
    report["phase_seconds"] = {
        name: round(seconds, 6)
        for name, seconds in sorted(report["phase_seconds"].items())
    }
    report["barrier_wait"] = merge_histogram_payloads(report["barrier_histograms"])
    del report["barrier_histograms"]
    report["registry"] = dict(sorted(report["registry"].items()))
    report["fused_window_reasons"] = dict(
        sorted(report["fused_window_reasons"].items())
    )
    report["execution_paths"] = {
        kind: dict(sorted(counts.items())) for kind, counts in sorted(paths.items())
    }
    return report


def _render_histogram(histogram: dict, out) -> None:
    bounds = histogram["bounds"]
    counts = histogram["counts"]
    top = max(counts) or 1
    labels = [f"<= {bound:g}s" for bound in bounds] + [f"> {bounds[-1]:g}s"]
    for label, count in zip(labels, counts):
        if count == 0:
            continue
        bar = "#" * max(1, round(40 * count / top))
        print(f"    {label:>12} {count:>8} {bar}", file=out)
    print(
        f"    waits={histogram['count']} total={histogram['total']:.4f}s "
        f"mean={histogram['mean']:.6f}s max={histogram['max']:.4f}s",
        file=out,
    )


def render_report(report: dict, out) -> None:
    print(f"events: {report['events']}", file=out)
    if report["runs"]:
        print("runs:", file=out)
        for run in report["runs"]:
            extras = " ".join(
                f"{key}={value}"
                for key, value in run.items()
                if key not in ("type", "tag", "ts") and value is not None
            )
            print(f"  {run['type']:<12} tag={run['tag']} {extras}", file=out)
    if report["workers"]:
        print("shard workers:", file=out)
        for worker, entry in sorted(report["workers"].items()):
            slot = entry["slot"]
            num = entry["num_slots"]
            if slot is not None and num:
                progress = f"slot {slot}/{num} ({100.0 * slot / num:.0f}%)"
            else:
                progress = "no progress events"
            rate = entry["device_slots_per_second"]
            rate_s = f" {rate:.3g} device-slots/s" if rate else ""
            state = "done" if entry["done"] else "running"
            print(
                f"  worker {worker}: {progress}{rate_s} "
                f"[{state}, shards={entry['shards']}]",
                file=out,
            )
    if report["phase_share"]:
        print("phase shares:", file=out)
        for name, share in sorted(
            report["phase_share"].items(), key=lambda kv: -kv[1]
        ):
            seconds = report["phase_seconds"][name]
            print(f"  {name:<16} {100.0 * share:5.1f}%  {seconds:.4f}s", file=out)
    if report["barrier_wait"]:
        print("barrier waits:", file=out)
        _render_histogram(report["barrier_wait"], out)
    for timeout in report["barrier_timeouts"]:
        print(
            f"barrier TIMEOUT at slot {timeout['slot']} ({timeout['phase']}): "
            f"arrived={timeout['arrived']} missing={timeout['missing']}",
            file=out,
        )
    if report["restarts"]:
        print("worker restarts:", file=out)
        for restart in report["restarts"]:
            print(
                f"  attempt {restart['attempt']}: {restart['error']} "
                f"(backoff {restart['backoff_s']:.2f}s)",
                file=out,
            )
    if report["faults"]:
        print("injected faults:", file=out)
        for fault in report["faults"]:
            print(
                f"  {fault['kind']} worker={fault['worker']} slot={fault['slot']}",
                file=out,
            )
    ckpt = report["checkpoints"]
    if ckpt["writes"] or ckpt["commits"]:
        print(
            f"checkpoints: {ckpt['writes']} shard writes "
            f"({ckpt['write_seconds']:.4f}s), {ckpt['commits']} commits",
            file=out,
        )
    if report["registry"]:
        stats = " ".join(f"{op}={n}" for op, n in report["registry"].items())
        print(f"registry: {stats}", file=out)
    if report["fused_window_reasons"]:
        reasons = " ".join(
            f"{reason}={n}" for reason, n in report["fused_window_reasons"].items()
        )
        print(f"fused-window truncations: {reasons}", file=out)
    if report["execution_paths"]:
        print("execution paths:", file=out)
        for kind, counts in report["execution_paths"].items():
            for reason, count in counts.items():
                print(f"  {kind:<20} {reason}: {count}", file=out)


def cmd_report(directory: str, args: argparse.Namespace, out) -> int:
    errors: list[str] = []
    events = read_events(directory, errors)
    if not events:
        print("no events found", file=out)
        return 1
    report = build_report(events)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        render_report(report, out)
    for error in errors:
        print(f"error: {error}", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Merge and render per-process telemetry event streams.",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help=f"telemetry directory (default: ${TELEMETRY_DIR_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tail = sub.add_parser("tail", help="print merged events (optionally live)")
    tail.add_argument("-n", "--lines", type=int, default=None)
    tail.add_argument("-f", "--follow", action="store_true")
    tail.add_argument("--interval", type=float, default=0.5)
    tail.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop following after this long (for scripted smoke tests)",
    )

    sub.add_parser("summary", help="validate streams and print event counts")

    report = sub.add_parser("report", help="reconstruct the run from its events")
    report.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    directory = args.dir or os.environ.get(TELEMETRY_DIR_ENV)
    if not directory:
        print(
            f"no telemetry directory: pass --dir or set ${TELEMETRY_DIR_ENV}",
            file=out,
        )
        return 2
    if args.command == "tail":
        return cmd_tail(directory, args, out)
    if args.command == "summary":
        return cmd_summary(directory, out)
    return cmd_report(directory, args, out)


if __name__ == "__main__":
    raise SystemExit(main())
