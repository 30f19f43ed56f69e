"""Shared configuration and helpers for the experiment drivers.

Every experiment accepts an :class:`ExperimentConfig`; the default is scaled
down (a handful of runs, shorter horizons) so the whole benchmark suite
completes on a laptop in minutes, while :meth:`ExperimentConfig.paper` returns
the full-scale parameters the paper used (500 runs of 1200 slots).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Hashable, Mapping, Sequence

from repro.sim.runner import run_many_scenarios, validate_execution
from repro.sim.scenario import Scenario, setting1_scenario, setting2_scenario

#: The policies of Table II and Table III, in the order the paper lists them.
ALL_POLICIES: tuple[str, ...] = (
    "exp3",
    "block_exp3",
    "hybrid_block_exp3",
    "smart_exp3_no_reset",
    "smart_exp3",
    "greedy",
    "full_information",
    "centralized",
    "fixed_random",
)

#: The block-based variants compared in Fig. 3 / Table IV.
BLOCK_POLICIES: tuple[str, ...] = (
    "block_exp3",
    "hybrid_block_exp3",
    "smart_exp3_no_reset",
)

#: The policies compared in the dynamic settings (Figs. 7–9).
DYNAMIC_POLICIES: tuple[str, ...] = (
    "exp3",
    "smart_exp3_no_reset",
    "smart_exp3",
    "greedy",
)

#: The two static settings of Section VI-A, by the name the drivers report.
STATIC_SETTINGS: Mapping[str, Callable[..., Scenario]] = MappingProxyType(
    {"setting1": setting1_scenario, "setting2": setting2_scenario}
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Run-count / horizon / execution configuration of an experiment.

    Attributes
    ----------
    runs:
        Number of independent simulation runs per (policy, setting) pair.
    horizon_slots:
        Horizon of each run, in slots; ``None`` keeps the scenario's default.
    base_seed:
        Entropy of the experiment's seed root; run ``i`` derives its RNG
        streams from ``SeedSequence(base_seed).spawn(runs)[i]`` (and is
        labelled ``base_seed + i`` in results).
    backend:
        Slot-execution backend (see :func:`repro.sim.backends.available_backends`).
        Every backend is bit-exact, so this only affects speed; the
        experiments layer defaults to the vectorized backend.
    workers:
        Process-pool width for multi-run experiments; ``None`` (default),
        ``0`` or ``1`` runs serially.  On a pool the run loop's stacks are
        split so that each worker gets one, and parallel results are
        bit-identical to serial ones.  With ``shards`` set the budget moves
        inside each run (shard worker processes) and the run loop goes
        serial.
    shards:
        Device-axis shard count per run; requires a backend that supports
        it, i.e. ``backend="sharded"`` (see :mod:`repro.sim.sharded`).
        ``None`` leaves the backend's default configuration.
    cache:
        Run-registry mode for reduced runs (:mod:`repro.registry`):
        ``"off"`` (default) always simulates, ``"reuse"`` loads cached
        (config × seed) cells and simulates only the missing ones — which
        is also how an interrupted experiment resumes — and ``"refresh"``
        recomputes and overwrites.  A :class:`~repro.registry.CacheSpec`
        selects an explicit store root.  Validated eagerly; only applies to
        reduced runs (``reduce=``).  fig02, fig04–fig08, fig13, tab05 and
        ``churn_stress`` reduce every run, so they store and resume; the
        drivers that keep full results (fig03, fig09–fig12, fig14, fig15,
        tab04, tab06, tab07, ``theory_validation``, ``unutilized``)
        simulate every run.

    Telemetry is not a field: set ``REPRO_TELEMETRY_DIR``, or wrap the
    driver call in :func:`repro.telemetry.scoped_telemetry_dir`, to record
    an experiment's events.
    """

    runs: int = 5
    horizon_slots: int | None = 600
    base_seed: int = 0
    backend: str = "vectorized"
    workers: int | None = None
    shards: int | None = None
    cache: object = "off"

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.horizon_slots is not None and self.horizon_slots < 10:
            raise ValueError("horizon_slots must be >= 10")
        validate_execution(
            self.backend,
            workers=self.workers,
            shards=self.shards,
            cache=self.cache,
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """Benchmark-friendly configuration (minutes for the whole suite)."""
        return cls(runs=5, horizon_slots=600)

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's configuration: 500 runs of 1200 slots (5 simulated hours)."""
        return cls(runs=500, horizon_slots=1200)

    def replace(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


def apply_horizon(scenario: Scenario, config: ExperimentConfig) -> Scenario:
    """Apply the config's horizon override to a scenario."""
    if config.horizon_slots is None:
        return scenario
    return scenario.with_horizon(config.horizon_slots)


def run_with_config(scenario: Scenario, config: ExperimentConfig, reduce=None):
    """Run a scenario ``config.runs`` times with the config's execution knobs.

    Unlike :func:`run_scenario` this does *not* apply the horizon override —
    drivers that manage their own horizons call this directly.

    ``reduce`` (a :class:`~repro.analysis.reducers.Reducer` or built-in
    reducer name) streams each run through the reducer where it executes —
    multi-run experiments then hold kilobyte payloads instead of full
    slot-by-slot records, and the return value is the reducer's finalized
    output instead of a result list.  A driver whose analysis reads one
    series per run keeps just that series with
    :class:`~repro.analysis.reducers.SeriesReducer`.  ``config.cache``
    applies to reduced calls only: the registry stores reducer payloads, so
    a call that keeps full results always simulates.
    """
    return run_scenarios({0: scenario}, config, reduce=reduce)[0]


def run_scenarios(
    scenarios: Mapping[Hashable, Scenario], config: ExperimentConfig, reduce=None
) -> dict:
    """:func:`run_with_config` for every scenario of ``scenarios`` at once.

    Returns ``{key: output}``, each output equal to ``run_with_config`` on
    that scenario (no horizon override is applied here either).  Every
    scenario's runs go to one run loop
    (:func:`~repro.sim.runner.run_many_scenarios`), so on the vectorized
    backend the runs of all scenarios of equal physics advance as one
    engine, and each kernel group is called once per slot for all of them.
    """
    return run_many_scenarios(
        scenarios,
        config.runs,
        config.base_seed,
        backend=config.backend,
        workers=config.workers,
        reduce=reduce,
        shards=config.shards,
        cache=config.cache if reduce is not None else "off",
    )


def run_scenario(scenario: Scenario, config: ExperimentConfig, reduce=None):
    """Run a scenario ``config.runs`` times (optionally reduced in-flight)."""
    return run_with_config(apply_horizon(scenario, config), config, reduce=reduce)


def run_policy_grid(
    settings: Mapping[str, Callable[..., Scenario]],
    policies: Sequence[str],
    config: ExperimentConfig,
    reduce=None,
) -> dict:
    """Run ``factory(policy=p)`` for every setting's factory and policy ``p``.

    Returns ``{setting: {policy: output}}``: a list of full
    :class:`~repro.sim.metrics.SimulationResult` records per cell, or with
    ``reduce=`` the reducer's finalized output.  The config's horizon
    override applies to every cell, and the whole grid is one
    :func:`run_scenarios` call: on the vectorized backend every setting's
    and policy's runs advance as one engine, up to the stack budget
    (settings 1 and 2 share their network ids, and each run keeps its own
    network values), with the Smart EXP3 family in one kernel group.
    """
    outputs = run_scenarios(
        {
            (setting, policy): apply_horizon(factory(policy=policy), config)
            for setting, factory in settings.items()
            for policy in policies
        },
        config,
        reduce=reduce,
    )
    return {
        setting: {policy: outputs[setting, policy] for policy in policies}
        for setting in settings
    }
