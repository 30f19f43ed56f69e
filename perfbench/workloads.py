"""The benchmark's workloads.

Every workload is built from two inputs only: the workload seed given on
the command line and a size (``"full"`` for timed runs, ``"small"`` for the
event-backend check, ``reference.py check-event``).  The program under
test receives only the scenarios and seeds generated here.

A workload's life in one repetition process is::

    workload = WORKLOADS[name](seed, state_dir)
    workload.setup()            # counted in setup_s
    output = workload.run()     # the timed section (wall_s)
    workload.account(output)    # device-slots / runs, after the timing
    workload.check(output)      # physical invariants; raises on violation
    digest(workload.canonical(output))
    workload.cleanup()

``prepare()`` runs once per benchmark invocation, in its own process,
before any repetition: it builds state every repetition resets to (the
partly warm registry store of ``sweep_incremental``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro.analysis.reducers import SummaryReducer
from repro.experiments import (
    fig02_switching,
    fig04_distance_static,
    fig07_dynamic_join,
    tab04_time_to_stable,
)
from repro.experiments.common import (
    ALL_POLICIES,
    BLOCK_POLICIES,
    DYNAMIC_POLICIES,
    ExperimentConfig,
)
from repro.registry.fingerprint import code_fingerprint
from repro.registry.store import CacheSpec, RunStore
from repro.registry.sweep import expand_grid, run_sweep
from repro.sim.backends import get_backend
from repro.sim.metrics import NO_NETWORK
from repro.sim.mobility import NetworkDynamics
from repro.sim.runner import run_many
from repro.sim.scenario import (
    TraceChurn,
    churn_scenario,
    dynamic_join_leave_scenario,
    per_slot_churn_windows,
    scalability_scenario,
    setting1_scenario,
    setting2_scenario,
)
from repro.sim.sharded import (
    CheckpointConfig,
    HomogeneousPopulation,
    ShardedSlotExecutor,
)


def plain(value):
    """``value`` as plain JSON types (numpy scalars/arrays, tuples, keys)."""
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def digest(value) -> str:
    """SHA-256 of ``value`` as canonical JSON (sorted keys, exact floats)."""
    text = json.dumps(plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _finite_nonnegative(values, what: str) -> None:
    array = np.asarray(values, dtype=float)
    _require(bool(np.all(np.isfinite(array))), f"{what}: non-finite value")
    _require(bool(np.all(array >= 0.0)), f"{what}: negative value")


class Workload:
    """Base class: one named input set (see the module docstring)."""

    name = ""
    #: Backend the timed runs use (``reference.py check-event`` swaps in
    #: ``"event"``).
    default_backend = "vectorized"
    #: Whether the timed section plays the reference loop (``calibrate.py``)
    #: and its times are scaled by it.
    calibrated = True
    sizes: dict = {}

    def __init__(
        self,
        seed: int,
        state_dir: str | Path,
        size: str = "full",
        backend: str | None = None,
    ) -> None:
        self.seed = int(seed)
        self.state_dir = Path(state_dir)
        self.size = dict(self.sizes[size])
        self.backend = backend or self.default_backend
        #: Simulated device-slots of the timed section (cache hits count 0).
        self.device_slots = 0
        #: Completed (config x seed) cells of the timed section.
        self.runs = 0

    def prepare(self) -> None:
        """Once-per-invocation state shared by every repetition."""

    def setup(self) -> None:
        """Per-repetition set-up, measured as ``setup_s``."""

    def run(self):
        raise NotImplementedError

    def account(self, output) -> None:
        raise NotImplementedError

    def check(self, output) -> None:
        """Raise ``AssertionError`` if the output breaks an invariant."""

    def canonical(self, output):
        return output

    def cleanup(self) -> None:
        """Remove what the repetition wrote."""


class PaperFigures(Workload):
    """Four paper drivers at laptop scale, run serially in one process."""

    name = "paper_figures"
    sizes = {
        "full": {"runs": 1, "horizon": 300},
        "small": {"runs": 1, "horizon": 40},
    }
    #: The drivers, in the order they run.
    DRIVERS = (
        ("fig02", fig02_switching),
        ("fig04", fig04_distance_static),
        ("tab04", tab04_time_to_stable),
        ("fig07", fig07_dynamic_join),
    )

    def setup(self) -> None:
        self.config = ExperimentConfig(
            runs=self.size["runs"],
            horizon_slots=self.size["horizon"],
            base_seed=self.seed,
            backend=self.backend,
        )

    def run(self):
        return {key: driver.run(self.config) for key, driver in self.DRIVERS}

    def account(self, output) -> None:
        runs = self.size["runs"]
        horizon = self.size["horizon"]
        static = (setting1_scenario, setting2_scenario)
        grids = (
            (static, fig02_switching.FIG2_POLICIES),
            (static, ALL_POLICIES),
            (static, BLOCK_POLICIES),
        )
        device_slots = cells = 0
        for factories, policies in grids:
            for factory in factories:
                for policy in policies:
                    scenario = factory(policy=policy)
                    device_slots += runs * scenario.num_devices * horizon
                    cells += runs
        for policy in DYNAMIC_POLICIES:
            scenario = dynamic_join_leave_scenario(policy=policy)
            slots = max(horizon, scenario.horizon_slots)
            device_slots += runs * scenario.num_devices * slots
            cells += runs
        self.device_slots = device_slots
        self.runs = cells

    def check(self, output) -> None:
        fig02 = output["fig02"]
        _require(
            len(fig02) == len(fig02_switching.FIG2_POLICIES), "fig02: row count"
        )
        for row in fig02:
            _finite_nonnegative(
                [row["setting1_switches"], row["setting2_switches"]],
                "fig02 switches",
            )
        for setting in output["fig04"]["settings"].values():
            fractions = list(setting["fraction_at_equilibrium"].values())
            _require(
                all(0.0 <= f <= 1.0 for f in fractions), "fig04: fraction range"
            )
            for series in setting["series"].values():
                _finite_nonnegative(series, "fig04 series")
        _require(len(output["tab04"]) == len(BLOCK_POLICIES), "tab04: row count")
        for series in output["fig07"]["series"].values():
            _finite_nonnegative(series, "fig07 series")


class ChurnMobility(Workload):
    """Per-slot churn, mobility over three areas and one flapping network."""

    name = "churn_mobility"
    sizes = {"full": {"devices": 700}, "small": {"devices": 40}}
    AREAS = {"hall": (0, 1, 2), "north": (0, 2), "south": (1, 2)}
    MOBILITY_FRACTION = 0.3

    def setup(self) -> None:
        windows, horizon = per_slot_churn_windows(self.size["devices"])
        self.scenario = churn_scenario(
            num_devices=self.size["devices"],
            policy="exp3",
            horizon_slots=horizon,
            churn=TraceChurn(tuple(windows)),
            areas=self.AREAS,
            mobility_fraction=self.MOBILITY_FRACTION,
            dynamics=NetworkDynamics(
                flapping_networks=(0,),
                mean_up_slots=horizon / 6.0,
                mean_outage_slots=horizon / 40.0,
            ),
            seed=self.seed,
        )

    def run(self):
        return run_many(self.scenario, 1, self.seed, backend=self.backend)[0]

    def account(self, result) -> None:
        self.device_slots = result.choices_2d.size
        self.runs = 1

    def check(self, result) -> None:
        active = result.active_2d
        _require(
            bool(np.array_equal(active, result.choices_2d != NO_NETWORK)),
            "churn: a device chose a network while absent (or none while present)",
        )
        _require(
            int(active.sum(axis=0).min()) >= 1, "churn: a slot with no device"
        )
        _finite_nonnegative(result.rates_2d, "churn rates")
        _require(
            bool(np.all(result.delays_2d[~result.switches_2d] == 0.0)),
            "churn: a delay without a switch",
        )
        for network_id, network in result.networks.items():
            on_network = result.choices_2d == network_id
            load = np.where(on_network, result.rates_2d, 0.0).sum(axis=0)
            _require(
                bool(np.all(load <= network.bandwidth_mbps * (1 + 1e-9))),
                f"churn: network {network_id} exceeds its bandwidth",
            )

    def canonical(self, result):
        blocks = {
            "choices": result.choices_2d,
            "rates": result.rates_2d,
            "delays": result.delays_2d,
            "switches": result.switches_2d,
            "active": result.active_2d,
            "probabilities": result.probabilities_3d,
        }
        return {
            "summary": result.summary(),
            "blocks": {
                key: hashlib.sha256(np.ascontiguousarray(block).tobytes()).hexdigest()
                for key, block in blocks.items()
            },
        }


class LargePopulation(Workload):
    """100k EXP3 devices on the sharded backend: 2 shards, 2 workers."""

    name = "large_population"
    default_backend = "sharded"
    #: The section runs in two workers on both cores while this process
    #: waits; loop slices here would compete with them, not measure them.
    calibrated = False
    sizes = {
        "full": {
            "devices": 100_000,
            "slots": 40,
            "checkpoint_every": 20,
            "window": 20,
            "dtype": "float32",
        },
        # Compared with the event backend, which records float64 and reduces
        # the whole run at once: the recorder dtype and the reducer window
        # change only storage precision and float summation order, never
        # the dynamics, so they match it here.
        "small": {
            "devices": 60,
            "slots": 30,
            "checkpoint_every": 10,
            "window": 30,
            "dtype": "float64",
        },
    }
    SHARDS = 2
    WORKERS = 2

    @property
    def checkpoint_dir(self) -> Path:
        return self.state_dir / "checkpoints"

    def setup(self) -> None:
        self.population = HomogeneousPopulation(
            num_devices=self.size["devices"],
            policy="exp3",
            horizon_slots=self.size["slots"],
            name=f"population_d{self.size['devices']}",
        )
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        self.executor = ShardedSlotExecutor(
            shards=self.SHARDS,
            workers=self.WORKERS,
            dtype=self.size["dtype"],
            window_slots=self.size["window"],
            checkpoint=CheckpointConfig(
                every_slots=self.size["checkpoint_every"],
                dir=self.checkpoint_dir,
                keep=2,
            ),
        )

    def run(self):
        reducer = SummaryReducer()
        if self.backend == "event":
            scenario = self.population.build_shard(0, self.size["devices"])
            result = get_backend("event").execute(
                scenario, self.seed, record_probabilities=False
            )
            return reducer.map(result)[0]
        return reducer.finalize(
            self.executor.execute_population(self.population, self.seed, reducer)
        ).rows[0]

    def account(self, row) -> None:
        self.device_slots = self.size["devices"] * self.size["slots"]
        self.runs = 1

    def check(self, row) -> None:
        _require(
            row["num_devices"] == self.size["devices"], "population: device count"
        )
        _require(row["num_slots"] == self.size["slots"], "population: slot count")
        _require(0.0 < row["jains_index"] <= 1.0 + 1e-12, "population: fairness")
        _finite_nonnegative(
            [row["total_switches"], row["total_download_gb"]], "population"
        )

    def cleanup(self) -> None:
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


class SweepIncremental(Workload):
    """A registry sweep over a grid of short cells, most of them stored."""

    name = "sweep_incremental"
    sizes = {
        "full": {"horizon": 40, "warm_runs": 6, "total_runs": 8},
        "small": {"horizon": 12, "warm_runs": 1, "total_runs": 2},
    }
    GRID = {
        "policy": (
            "exp3",
            "smart_exp3",
            "block_exp3",
            "greedy",
            "full_information",
            "fixed_random",
        ),
        "num_devices": (4, 8, 12),
        "num_networks": (2, 3, 4),
    }

    @property
    def template_dir(self) -> Path:
        return self.state_dir / "store-template"

    @property
    def store_dir(self) -> Path:
        return self.state_dir / "store"

    def _cases(self, runs: int):
        horizon = self.size["horizon"]

        def factory(**params):
            return scalability_scenario(horizon_slots=horizon, **params)

        return expand_grid(factory, self.GRID, runs=runs, base_seed=self.seed)

    def prepare(self) -> None:
        # The template only needs to be readable, not durable: skipping its
        # fsyncs keeps this unmeasured step from loading the disk that the
        # timed stores then contend for.
        shutil.rmtree(self.template_dir, ignore_errors=True)
        fsync = os.fsync
        os.fsync = lambda fd: None
        try:
            run_sweep(
                self._cases(self.size["warm_runs"]),
                "summary",
                cache=CacheSpec(mode="reuse", store=RunStore(self.template_dir)),
            )
        finally:
            os.fsync = fsync

    def setup(self) -> None:
        # Committed entries are never modified in place (a store publishes a
        # new directory by rename), so hard links reset the store to the
        # template without copying a byte.
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.copytree(self.template_dir, self.store_dir, copy_function=os.link)
        code_fingerprint()  # the registry's one-time lazy cost
        self.cases = self._cases(self.size["total_runs"])

    def run(self):
        if self.backend == "event":
            return run_sweep(self.cases, "summary", cache="off", backend="event")
        return run_sweep(
            self.cases,
            "summary",
            cache=CacheSpec(mode="reuse", store=RunStore(self.store_dir)),
            backend=self.backend,
        )

    def _computed_per_case(self) -> int:
        return self.size["total_runs"] - self.size["warm_runs"]

    def account(self, report) -> None:
        computed = self._computed_per_case()
        self.device_slots = sum(
            computed * case.scenario.num_devices * self.size["horizon"]
            for case in self.cases
        )
        self.runs = report.cells_total

    def check(self, report) -> None:
        total = len(self.cases) * self.size["total_runs"]
        _require(report.cells_total == total, "sweep: cell count")
        if self.backend != "event":
            _require(
                report.cells_computed == len(self.cases) * self._computed_per_case(),
                "sweep: cells computed (the store was not partly warm)",
            )
        for case in self.cases:
            rows = report.results[case.name].rows
            _require(len(rows) == case.runs, f"sweep: {case.name} row count")
            _require(
                [row["seed"] for row in rows]
                == [self.seed + index for index in range(case.runs)],
                f"sweep: {case.name} seed labels",
            )

    def canonical(self, report):
        return {name: summaries.rows for name, summaries in report.results.items()}

    def cleanup(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (PaperFigures, ChurnMobility, LargePopulation, SweepIncremental)
}
