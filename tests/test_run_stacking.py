"""Run-stacked execution: runs with identical physics as row blocks of one engine.

``run_many`` and ``run_sweep`` feed their missing cells to one run loop
(:func:`repro.sim.runner.run_cells`), which executes cells of equal
physics as stacks of one engine; each run keeps its own network values.
The generated properties hold every stacked run to its solo event run bit
for bit, and a sweep over cases of mixed physics and per-run network
values to a cold ``run_many`` per case; the event tests pin which path
each cell took and why, and the grid-shape tests count the stacks and
kernel calls of two paper drivers and the pool and stacks of a pooled one.
"""

from __future__ import annotations

import json
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.runner as runner
from repro.algorithms.kernels.base import BatchKernel
from repro.algorithms.kernels.exp3 import EXP3Kernel
from repro.analysis.reducers import Reducer
from repro.game.gain import EqualShareModel, NoisyShareModel
from repro.registry.sweep import SweepCase, run_sweep
from repro.sim.backends import get_backend
from repro.sim.delay import ConstantDelayModel, EmpiricalDelayModel
from repro.experiments import fig04_distance_static, fig07_dynamic_join
from repro.experiments.common import ExperimentConfig
from repro.game.network import NetworkType
from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import (
    mobility_scenario,
    setting1_scenario,
    setting2_scenario,
)
from repro.sim.sharded.executor import stack_physics
from repro.telemetry import read_events, set_telemetry_dir
from repro.telemetry.__main__ import build_report
from tests.test_backends import (
    SLOT_DURATIONS_S,
    assert_physical_invariants,
    assert_results_identical,
    dynamic_scenarios,
)

GENERATED = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _stack_spy():
    """Record each batch the run loop executes, still executing it."""
    return mock.patch.object(runner, "_run_batch", wraps=runner._run_batch)


def _stack_sizes(spy) -> list[int]:
    """The run count of each stack among the recorded batches."""
    batches = [call.args[0] for call in spy.call_args_list]
    return [len(cells) for reason, cells in batches if reason is None]


class _Records(Reducer):
    """Keeps whole results: a sweep's payloads compare field by field."""

    name = "records"

    def map(self, result):
        return [result]

    def merge(self, a, b):
        return a + b


@settings(GENERATED, max_examples=200)
@given(
    scenario=dynamic_scenarios(),
    runs=st.integers(1, 4),
    base_seed=st.integers(0, 1000),
    record=st.booleans(),
)
def test_stacked_runs_equal_solo_event_runs(scenario, runs, base_seed, record):
    with _stack_spy() as spy:
        stacked = run_many(
            scenario, runs, base_seed, backend="vectorized",
            record_probabilities=record,
        )
    # Equal-share physics and a small recorder: every run shares one stack.
    # Any other gain model keeps every run solo.
    stacked_runs = [runs] if type(scenario.gain_model) is EqualShareModel else []
    assert _stack_sizes(spy) == stacked_runs
    solo = run_many(
        scenario, runs, base_seed, backend="event", record_probabilities=record
    )
    for reference, candidate in zip(solo, stacked):
        assert_results_identical(reference, candidate)
        assert_physical_invariants(candidate, scenario)


@st.composite
def mixed_physics_cases(draw):
    """Sweep cases: most share one physics (and stack), the others do not —
    their own network ids, horizon, delay model or slot length, or a gain
    model that keeps them solo.  Each shared case draws its own bandwidths
    over the same network ids, and so its own cellular network (the fastest)
    and gain-scaling reference."""
    num_networks = draw(st.integers(1, 4))
    horizon = draw(st.integers(10, 30))
    delay = draw(st.sampled_from((ConstantDelayModel(), EmpiricalDelayModel())))
    slot_duration_s = draw(st.sampled_from(SLOT_DURATIONS_S))
    shared = st.lists(
        st.sampled_from((4.0, 7.0, 22.0)),
        min_size=num_networks,
        max_size=num_networks,
    ).flatmap(
        lambda bandwidths: dynamic_scenarios(
            tuple(bandwidths), horizon, delay, slot_duration_s, EqualShareModel()
        )
    )
    scenarios = draw(
        st.lists(
            st.one_of(
                shared,
                shared,
                dynamic_scenarios(),
                shared.map(lambda s: replace(s, gain_model=NoisyShareModel())),
            ),
            min_size=2,
            max_size=4,
        )
    )
    return [
        SweepCase(
            name=f"case{index}",
            scenario=scenario,
            runs=draw(st.integers(1, 3)),
            base_seed=draw(st.integers(0, 50)),
        )
        for index, scenario in enumerate(scenarios)
    ]


@settings(GENERATED, max_examples=80)
@given(cases=mixed_physics_cases(), record=st.booleans())
def test_sweep_of_mixed_physics_equals_cold_run_many_per_case(cases, record):
    with _stack_spy() as spy:
        report = run_sweep(
            cases, _Records(), cache="off", backend="vectorized",
            record_probabilities=record,
        )
    stackable = [
        case for case in cases if type(case.scenario.gain_model) is EqualShareModel
    ]
    assert sum(_stack_sizes(spy)) == sum(case.runs for case in stackable)
    # One stack per distinct physics: cases that differ only in their
    # network values share an engine.
    physics = []
    for case in stackable:
        if stack_physics(case.scenario) not in physics:
            physics.append(stack_physics(case.scenario))
    assert len(_stack_sizes(spy)) == len(physics)
    for case in cases:
        cold = run_many(
            case.scenario, case.runs, case.base_seed, backend="vectorized",
            record_probabilities=record,
        )
        swept = report.results[case.name]
        assert len(swept) == len(cold)
        for reference, candidate in zip(cold, swept):
            assert_results_identical(reference, candidate)


# ------------------------------------------------------------ path events


@pytest.fixture
def tiny():
    return setting1_scenario(policy="exp3", num_devices=4, horizon_slots=20)


def _paths(directory) -> dict:
    return build_report(read_events(directory))["execution_paths"]


def test_stacks_and_solo_cells_are_recorded_with_their_reason(tmp_path, tiny):
    set_telemetry_dir(tmp_path)
    run_many(tiny, 3, backend="vectorized", reduce="summary")
    noisy = replace(tiny, gain_model=NoisyShareModel())
    run_many(noisy, 2, backend="vectorized", reduce="summary")
    run_many(tiny, 2, backend="event", reduce="summary")
    run_many(tiny, 2, backend="sharded", shards=2, reduce="summary")
    run_many(tiny, 2, backend="vectorized", workers=2, reduce="summary")
    set_telemetry_dir(None)
    paths = _paths(tmp_path)
    # The pooled runs are two stacks of one, one per worker.
    assert paths["run_stack"] == {"rows": 20, "runs": 5, "stacks": 3}
    assert paths["run_solo"] == {"backend": 4, "gain_model": 2}


def test_stacks_stop_at_the_recorder_budget(tmp_path, tiny, monkeypatch):
    one_run = runner._recorder_bytes(tiny, record_probabilities=False)
    monkeypatch.setattr(runner, "STACK_BUDGET_BYTES", 2 * one_run)
    with _stack_spy() as spy:
        capped = run_many(tiny, 5, backend="vectorized", reduce="summary")
    assert _stack_sizes(spy) == [2, 2, 1]
    assert capped.rows == run_many(tiny, 5, backend="event", reduce="summary").rows

    monkeypatch.setattr(runner, "STACK_BUDGET_BYTES", one_run - 1)
    set_telemetry_dir(tmp_path)
    with _stack_spy() as spy:
        run_many(tiny, 2, backend="vectorized", reduce="summary")
    set_telemetry_dir(None)
    assert _stack_sizes(spy) == []
    assert _paths(tmp_path)["run_solo"] == {"budget": 2}


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize(
    "scenario",
    [
        setting1_scenario(policy="exp3", num_devices=6, horizon_slots=30),
        mobility_scenario(policy="exp3", horizon_slots=60),
    ],
    ids=["setting1", "mobility"],
)
def test_the_stack_budget_counts_what_a_run_records(scenario, record):
    # A pooled stack's results come back in one message, so the budget
    # bounds that message too.
    result = run_simulation(
        scenario, 1, backend="vectorized", record_probabilities=record
    )
    assert runner._recorder_bytes(scenario, record) == result.nbytes


def test_kernel_rows_sent_to_the_scalar_path_are_recorded(
    tmp_path, tiny, monkeypatch
):
    monkeypatch.setattr(EXP3Kernel, "group_key", classmethod(lambda cls, policy: None))
    set_telemetry_dir(tmp_path)
    scalar = get_backend("vectorized").execute(tiny, seed=4)
    set_telemetry_dir(None)
    assert _paths(tmp_path)["path_fallback"] == {
        "scalar_policy: EXP3Policy has no kernel group key": 4
    }
    assert_results_identical(get_backend("event").execute(tiny, seed=4), scalar)


def test_a_stack_refuses_runs_of_other_physics(tiny):
    executor = get_backend("vectorized")
    longer = tiny.with_horizon(30)
    noisy = replace(tiny, gain_model=NoisyShareModel())
    for other in (longer, noisy):
        with pytest.raises(ValueError, match="cannot join this stack"):
            executor.execute_stack([(tiny, 0), (other, 1)])


def test_stacked_runs_keep_their_own_network_types():
    # Constant delays charge WiFi and cellular differently, and the cellular
    # network (the fastest) is id 2 in setting 1 but id 0 in setting 2: a
    # stack of both resolves each run's switches with its own types.
    delay = ConstantDelayModel(wifi_delay_s=2.0, cellular_delay_s=3.0)
    cells = [
        (replace(factory(policy="exp3", num_devices=6, horizon_slots=30), delay_model=delay), seed)
        for seed, factory in enumerate((setting1_scenario, setting2_scenario))
    ]
    cellular = [
        [n.network_id for n in scenario.networks if n.network_type is NetworkType.CELLULAR]
        for scenario, _ in cells
    ]
    assert cellular == [[2], [0]]
    assert stack_physics(cells[0][0]) == stack_physics(cells[1][0])
    stacked = get_backend("vectorized").execute_stack(cells)
    for (scenario, seed), result in zip(cells, stacked):
        assert_results_identical(get_backend("event").execute(scenario, seed), result)
        charged = set(result.delays_2d[result.switches_2d].tolist())
        assert charged == {2.0, 3.0}


# ------------------------------------------------------------- grid shape


def _kernel_calls(monkeypatch) -> list[int]:
    """Count kernel slot calls (``begin_slot``), still making them."""
    calls = []
    for kernel_cls in BatchKernel.__subclasses__():
        begin_slot = kernel_cls.begin_slot

        def counted(self, slot, *draws, begin_slot=begin_slot):
            calls.append(slot)
            return begin_slot(self, slot, *draws)

        monkeypatch.setattr(kernel_cls, "begin_slot", counted)
    return calls


def test_fig04_grid_is_one_stack_with_four_kernel_calls_a_slot(monkeypatch):
    # Both settings x nine policies, one run each: one stack of 18 runs.
    # EXP3, the Smart EXP3 family, Greedy and Full Information make four
    # kernel calls a slot; Centralized and Fixed Random rows are frozen.
    calls = _kernel_calls(monkeypatch)
    config = ExperimentConfig(runs=1, horizon_slots=20)
    with _stack_spy() as spy:
        fig04_distance_static.run(config)
    assert _stack_sizes(spy) == [18]
    assert len(calls) == 4 * config.horizon_slots


def test_fig07_policies_are_one_stack():
    with _stack_spy() as spy:
        fig07_dynamic_join.run(ExperimentConfig(runs=1, horizon_slots=20))
    assert _stack_sizes(spy) == [4]


def test_a_pooled_grid_opens_one_pool(tmp_path, monkeypatch):
    # fig04's 18 setting x policy cells of two runs each on two workers:
    # two stacks of 18 runs, one per worker, on one process pool for the
    # run loop's one call, with the serial outputs.
    config = ExperimentConfig(runs=2, horizon_slots=20)
    serial = fig04_distance_static.run(config)
    pools = []
    real_pool = runner.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", counting_pool)
    set_telemetry_dir(tmp_path)
    pooled = fig04_distance_static.run(replace(config, workers=2))
    set_telemetry_dir(None)
    assert pools == [2]
    events = read_events(tmp_path)
    assert [e["runs"] for e in events if e["type"] == "run_stack"] == [18, 18]
    assert not [e for e in events if e["type"] == "run_solo"]
    assert _canonical(pooled) == _canonical(serial)


def _canonical(output) -> str:
    return json.dumps(
        output,
        sort_keys=True,
        default=lambda value: value.tolist() if hasattr(value, "tolist") else repr(value),
    )
