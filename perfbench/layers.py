"""Per-layer tracing for the benchmark's traced repetitions.

The tracer wraps the public entry points of each layer of ``repro`` from
outside the program: a module-level function is replaced in its defining
module *and* in every module that imported it by name (the caller looks
it up there; the benchmark's own workloads are such callers), and a
method is replaced on its class and on every subclass that overrides it.
Each wrapper records a span on a stack, so a layer's self time is its
spans' time minus the time of the wrapped spans nested directly inside
them.  The tracer keeps its totals in memory; :meth:`Tracer.metrics`
reads them once the timed section ends.

Sharded worker processes run outside this process, so their numbers come
from the program's own telemetry stream (:func:`sharded_metrics`).

``LAYER_METRICS`` is the table of per-layer metrics: for each, the
end-to-end metric it should move and the workload it should move it on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Per-layer metric -> (end-to-end metric it should move, on workload).
#: Units and directions are in BENCHMARK.json.
LAYER_METRICS = {
    "kernels.begin_slot_s": ("wall_s", "paper_figures"),
    "kernels.end_slot_s": ("wall_s", "paper_figures"),
    "kernels.slot_calls": ("wall_s", "paper_figures"),
    "kernels.rows_per_call": ("wall_s", "paper_figures"),
    "kernels.membership_s": ("wall_s", "churn_mobility"),
    "kernels.membership_calls": ("wall_s", "churn_mobility"),
    "backends.execute_self_s": ("wall_s", "churn_mobility"),
    "backends.prepare_run_s": ("runs_per_s", "sweep_incremental"),
    "backends.prepare_run_calls": ("runs_per_s", "sweep_incremental"),
    "delay.sample_many_s": ("wall_s", "paper_figures"),
    "delay.calls": ("wall_s", "paper_figures"),
    "metrics.result_s": ("peak_rss_mb", "churn_mobility"),
    "metrics.result_mb": ("peak_rss_mb", "churn_mobility"),
    "analysis.reducer_s": ("wall_s", "paper_figures"),
    "analysis.series_s": ("wall_s", "paper_figures"),
    "runner.self_s": ("runs_per_s", "sweep_incremental"),
    "experiments.self_s": ("runs_per_s", "sweep_incremental"),
    "scenario.build_s": ("setup_s", "churn_mobility"),
    "scenario.builds": ("setup_s", "churn_mobility"),
    "sharded.bus_wait_s": ("wall_s", "large_population"),
    "sharded.exchanges": ("wall_s", "large_population"),
    "sharded.checkpoint_s": ("wall_s", "large_population"),
    "sharded.checkpoint_mb": ("wall_s", "large_population"),
    "sharded.worker_peak_rss_mb": ("peak_rss_mb", "large_population"),
    "registry.fingerprint_s": ("wall_s", "sweep_incremental"),
    "registry.load_s": ("wall_s", "sweep_incremental"),
    "registry.loads": ("wall_s", "sweep_incremental"),
    "registry.store_s": ("wall_s", "sweep_incremental"),
    "registry.stores": ("wall_s", "sweep_incremental"),
    "registry.hit_ratio": ("wall_s", "sweep_incremental"),
    "trace.overhead_frac": ("wall_s", "every workload"),
}

#: Analysis entry points the drivers call on whole results.
SERIES_FUNCTIONS = (
    ("repro.analysis.distance", "distance_to_nash_series"),
    ("repro.analysis.distance", "fraction_of_time_at_equilibrium"),
    ("repro.analysis.stability", "time_to_stable"),
    ("repro.analysis.stability", "stability_report"),
    ("repro.analysis.aggregate", "mean_of_series"),
    ("repro.analysis.aggregate", "downsample_series"),
)

#: Public scenario factories of ``repro.sim.scenario``.
SCENARIO_FACTORIES = (
    "setting1_scenario",
    "setting2_scenario",
    "scalability_scenario",
    "dynamic_join_leave_scenario",
    "dynamic_leave_scenario",
    "mobility_scenario",
    "mixed_policy_scenario",
    "churn_scenario",
    "per_slot_churn_scenario",
)

#: The experiment drivers the workloads run, plus the sweep orchestrator.
EXPERIMENT_ENTRY_POINTS = (
    ("repro.experiments.fig02_switching", "run"),
    ("repro.experiments.fig04_distance_static", "run"),
    ("repro.experiments.tab04_time_to_stable", "run"),
    ("repro.experiments.fig07_dynamic_join", "run"),
    ("repro.experiments.common", "run_policy_grid"),
    ("repro.experiments.common", "run_with_config"),
    ("repro.experiments.common", "run_scenario"),
    ("repro.registry.sweep", "expand_grid"),
    ("repro.registry.sweep", "run_sweep"),
)

MB = 1024.0 * 1024.0


def _subclasses(base: type) -> list[type]:
    found = [base]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


class Tracer:
    """Span stack plus per-span totals (calls, inclusive and self seconds)."""

    def __init__(self) -> None:
        #: span -> [outermost calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: free-form counters fed by call hooks
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, span: str, fn, before=None, after=None):
        """``fn`` timed under ``span``; hooks see the call's arguments."""
        stats = self.spans[span]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            depth[span] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[span] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats[2] += elapsed - frame[0]
                if depth[span] == 0:
                    stats[0] += 1
                    stats[1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch_function(self, module_name: str, attr: str, span: str, **hooks):
        """Wrap a module-level function in every module that holds it."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        traced = self.wrap(span, original, **hooks)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__dict__", {}).get(attr) is original:
                setattr(loaded, attr, traced)

    def patch_method(self, base: type, attr: str, span: str, **hooks):
        """Wrap ``attr`` on ``base`` and on every subclass that defines it."""
        for cls in _subclasses(base):
            raw = cls.__dict__.get(attr)
            if raw is None or isinstance(raw, (property, staticmethod)):
                continue
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(span, raw.__func__, **hooks))
            else:
                traced = self.wrap(span, raw, **hooks)
            setattr(cls, attr, traced)

    def install(self) -> None:
        """Wrap every layer's entry points (see ``LAYER_METRICS``)."""
        import repro.algorithms.kernels  # noqa: F401  (registers kernel classes)
        import repro.sim.sharded  # noqa: F401  (registers the sharded backend)
        from repro.algorithms.kernels.base import BatchKernel
        from repro.analysis.reducers import Reducer
        from repro.registry.store import MISS, RunStore
        from repro.sim.backends.base import SlotExecutor
        from repro.sim.delay import DelayModel
        from repro.sim.metrics import SimulationResult

        counts = self.counts

        def count_rows(args):
            counts["kernel_rows"] += args[0].size

        self.patch_method(BatchKernel, "begin_slot", "kernels.begin_slot", before=count_rows)
        self.patch_method(BatchKernel, "end_slot", "kernels.end_slot")
        self.patch_method(BatchKernel, "remove_rows", "kernels.membership")
        self.patch_method(BatchKernel, "absorb", "kernels.membership")
        self.patch_method(SlotExecutor, "execute", "backends.execute")
        self.patch_function("repro.sim.backends.base", "prepare_run", "backends.prepare_run")
        self.patch_method(DelayModel, "sample_many", "delay.sample_many")

        def result_size(args, _):
            counts["result_mb"] = max(counts["result_mb"], args[0].nbytes / MB)

        self.patch_method(SimulationResult, "__init__", "metrics.result", after=result_size)
        for attr, value in list(vars(SimulationResult).items()):
            if not attr.startswith("_") and callable(value):
                self.patch_method(SimulationResult, attr, "metrics.result")
        for attr in ("map", "merge", "finalize", "shard_map", "shard_merge", "shard_finalize"):
            self.patch_method(Reducer, attr, "analysis.reducer")
        for module_name, attr in SERIES_FUNCTIONS:
            self.patch_function(module_name, attr, "analysis.series")
        self.patch_function("repro.sim.runner", "run_many", "runner")
        self.patch_function("repro.sim.runner", "run_simulation", "runner")
        for module_name, attr in EXPERIMENT_ENTRY_POINTS:
            self.patch_function(module_name, attr, "experiments")
        for attr in SCENARIO_FACTORIES:
            self.patch_function("repro.sim.scenario", attr, "scenario.build")
        for attr in ("grid_keys", "cell_key", "code_fingerprint"):
            self.patch_function("repro.registry.fingerprint", attr, "registry.fingerprint")

        def count_hit(args, payload):
            if payload is not MISS:
                counts["registry_hits"] += 1

        self.patch_method(RunStore, "load", "registry.load", after=count_hit)
        self.patch_method(RunStore, "store", "registry.store")

    def metrics(self) -> dict[str, float]:
        """The in-process per-layer metrics (the sharded ones excepted).

        ``registry.hit_ratio`` is hits over the cells looked up, which with
        the cache on is every cell of the sweep.
        """
        spans = self.spans

        def calls(span):
            return spans[span][0]

        def inclusive(span):
            return spans[span][1]

        def own(span):
            return spans[span][2]

        slot_calls = calls("kernels.begin_slot")
        loads = calls("registry.load")
        return {
            "kernels.begin_slot_s": inclusive("kernels.begin_slot"),
            "kernels.end_slot_s": inclusive("kernels.end_slot"),
            "kernels.slot_calls": slot_calls,
            "kernels.rows_per_call": (
                self.counts["kernel_rows"] / slot_calls if slot_calls else 0.0
            ),
            "kernels.membership_s": inclusive("kernels.membership"),
            "kernels.membership_calls": calls("kernels.membership"),
            "backends.execute_self_s": own("backends.execute"),
            "backends.prepare_run_s": inclusive("backends.prepare_run"),
            "backends.prepare_run_calls": calls("backends.prepare_run"),
            "delay.sample_many_s": inclusive("delay.sample_many"),
            "delay.calls": calls("delay.sample_many"),
            "metrics.result_s": inclusive("metrics.result"),
            "metrics.result_mb": self.counts["result_mb"],
            "analysis.reducer_s": inclusive("analysis.reducer"),
            "analysis.series_s": inclusive("analysis.series"),
            "runner.self_s": own("runner"),
            "experiments.self_s": own("experiments"),
            "scenario.build_s": inclusive("scenario.build"),
            "scenario.builds": calls("scenario.build"),
            "registry.fingerprint_s": inclusive("registry.fingerprint"),
            "registry.load_s": inclusive("registry.load"),
            "registry.loads": loads,
            "registry.store_s": inclusive("registry.store"),
            "registry.stores": calls("registry.store"),
            "registry.hit_ratio": (
                self.counts["registry_hits"] / loads if loads else 0.0
            ),
        }


def sharded_metrics(telemetry_dir: Path, checkpoint_dir: Path) -> dict[str, float]:
    """Worker-side numbers from the run's telemetry stream and checkpoints.

    Every worker takes part in each exchange, so ``exchanges`` is one
    worker's barrier-wait count and ``bus_wait_s`` sums the waits of all
    workers.  ``checkpoint_s`` sums, over the checkpoints, the slowest
    worker's write; ``checkpoint_mb`` is the size of the last committed
    checkpoint.
    """
    import resource

    from repro.sim.sharded.checkpoint import latest_checkpoint
    from repro.telemetry import read_events

    events = read_events(telemetry_dir)
    waits = [e for e in events if e["type"] == "barrier_waits"]
    writes = [e for e in events if e["type"] == "checkpoint_write"]
    latest = latest_checkpoint(checkpoint_dir) if checkpoint_dir.is_dir() else None
    checkpoint_bytes = (
        sum(path.stat().st_size for path in latest.rglob("*") if path.is_file())
        if latest is not None
        else 0
    )
    slowest_write: dict[int, float] = defaultdict(float)
    for event in writes:
        slowest_write[event["slot"]] = max(slowest_write[event["slot"]], event["seconds"])
    return {
        "sharded.bus_wait_s": sum(e["seconds"] for e in waits),
        "sharded.exchanges": max((e["waits"] for e in waits), default=0),
        "sharded.checkpoint_s": sum(slowest_write.values()),
        "sharded.checkpoint_mb": checkpoint_bytes / MB,
        "sharded.worker_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if waits
            else 0.0
        ),
    }
