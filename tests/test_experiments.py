"""Smoke tests: every experiment driver runs with a tiny config and returns the
structure the corresponding table/figure needs."""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig
from repro.experiments import (
    churn_stress,
    fig02_switching,
    fig03_stability,
    fig04_distance_static,
    fig05_fairness,
    fig06_scalability,
    fig07_dynamic_join,
    fig08_dynamic_leave,
    fig09_mobility,
    fig10_switches_dynamic,
    fig11_greedy_robustness,
    fig12_trace_selection,
    fig13_controlled_static,
    fig14_controlled_dynamic,
    fig15_controlled_mixed,
    tab04_time_to_stable,
    tab05_download,
    tab06_traces,
    tab07_controlled,
    theory_validation,
    unutilized,
    wild,
)

QUICK = ExperimentConfig(runs=1, horizon_slots=120)
QUICK_FULL_HORIZON = ExperimentConfig(runs=1, horizon_slots=None)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(runs=1, horizon_slots=5)
    assert ExperimentConfig.paper().runs == 500


def test_fig02_switching_rows():
    rows = fig02_switching.run(QUICK)
    algorithms = {row["algorithm"] for row in rows}
    assert "exp3" in algorithms and "smart_exp3" in algorithms
    exp3_row = next(row for row in rows if row["algorithm"] == "exp3")
    smart_row = next(row for row in rows if row["algorithm"] == "smart_exp3")
    # Headline of Fig. 2: EXP3 switches far more than Smart EXP3.
    assert exp3_row["setting1_switches"] > smart_row["setting1_switches"]


def test_fig03_and_tab04_stability():
    config = ExperimentConfig(runs=1, horizon_slots=400)
    rows = fig03_stability.run(config)
    assert len(rows) == 6  # 3 algorithms x 2 settings
    for row in rows:
        total = row["pct_stable_at_nash"] + row["pct_stable_other_state"] + row["pct_not_stable"]
        assert total == pytest.approx(100.0)
    tab_rows = tab04_time_to_stable.run(config)
    assert {row["algorithm"] for row in tab_rows} == {
        "block_exp3", "hybrid_block_exp3", "smart_exp3_no_reset",
    }


def test_fig04_distance_structure():
    output = fig04_distance_static.run(QUICK, policies=("smart_exp3", "greedy"))
    assert set(output["settings"]) == {"setting1", "setting2"}
    entry = output["settings"]["setting1"]
    assert set(entry["series"]) == {"smart_exp3", "greedy"}
    assert all(0.0 <= f <= 1.0 for f in entry["fraction_at_equilibrium"].values())


def test_tab05_and_fig05_rows():
    rows = tab05_download.run(QUICK)
    assert all(row["setting1_download_gb"] > 0 for row in rows)
    fairness_rows = fig05_fairness.run(QUICK)
    assert all(row["setting1_std_mb"] >= 0 for row in fairness_rows)


def test_unutilized_rows():
    rows = unutilized.run(QUICK)
    assert all(row["unutilized_gb"] >= 0 for row in rows)
    assert all(row["total_available_gb"] > 0 for row in rows)


def test_fig06_scalability_rows():
    rows = fig06_scalability.run(
        ExperimentConfig(runs=1, horizon_slots=300), network_sweep=(3,), device_sweep=(6,)
    )
    assert len(rows) == 2
    assert {row["varied"] for row in rows} == {"networks", "devices"}


def test_fig07_fig08_dynamic_structure():
    out7 = fig07_dynamic_join.run(QUICK_FULL_HORIZON, policies=("smart_exp3",))
    assert "smart_exp3" in out7["series"]
    assert len(out7["phase_means"]["smart_exp3"]) == 3
    out8 = fig08_dynamic_leave.run(QUICK_FULL_HORIZON, policies=("greedy",))
    assert "greedy" in out8["series"]


def test_fig09_mobility_structure():
    output = fig09_mobility.run(QUICK_FULL_HORIZON, policies=("greedy",))
    assert len(output["groups"]) == 4
    assert "greedy" in output["mean_over_run"]


def test_fig10_switch_rows():
    rows = fig10_switches_dynamic.run(ExperimentConfig(runs=1, horizon_slots=None))
    assert len(rows) == 6
    assert all(row["mean_switches"] >= 0 for row in rows)


def test_fig11_robustness_structure():
    output = fig11_greedy_robustness.run(QUICK)
    assert len(output) == 3
    for entry in output.values():
        assert set(entry["mean_distance"]) == {"smart_exp3", "greedy"}


def test_tab06_and_fig12_traces():
    rows = tab06_traces.run(ExperimentConfig(runs=2, horizon_slots=None))
    assert [row["trace"] for row in rows] == ["trace1", "trace2", "trace3", "trace4"]
    assert all(row["smart_exp3_download_mb"] > 0 for row in rows)
    output = fig12_trace_selection.run(
        ExperimentConfig(runs=2, horizon_slots=None), trace_indices=(1,)
    )
    assert "trace1" in output
    assert len(output["trace1"]["observed_mbps"]) == 100


def test_controlled_experiments_structure():
    rows = tab07_controlled.run(ExperimentConfig(runs=1, horizon_slots=80))
    assert {row["algorithm"] for row in rows} == {"smart_exp3", "greedy"}
    out13 = fig13_controlled_static.run(ExperimentConfig(runs=1, horizon_slots=80))
    assert out13["optimal_distance"] >= 0
    out14 = fig14_controlled_dynamic.run(ExperimentConfig(runs=1, horizon_slots=None))
    assert set(out14["series"]) == {"smart_exp3", "greedy"}
    out15 = fig15_controlled_mixed.run(ExperimentConfig(runs=1, horizon_slots=80))
    assert set(out15["series"]) == {"smart_exp3", "greedy"}


def test_wild_structure():
    output = wild.run(ExperimentConfig(runs=2, horizon_slots=None), file_size_mb=100.0)
    assert output["per_policy"]["smart_exp3"]["completed_runs"] == 2
    assert output["speedup_smart_over_greedy"] > 0


def test_churn_stress_structure():
    output = churn_stress.run(
        ExperimentConfig(runs=1, horizon_slots=80),
        policies=("exp3", "greedy"),
        num_devices=10,
    )
    assert set(output["policies"]) == {"exp3", "greedy"}
    # The generated scenario's topology, counted from its plan.
    assert output["scenario"] == {
        "name": "churn_d10_s7",
        "num_devices": 10,
        "horizon_slots": 80,
        "event_slots": 24,
        "joins": 10,
        "leaves": 3,
        "visibility_changes": 80,
        "coverage_eras": 17,
    }


def test_theory_validation_rows():
    rows = theory_validation.run(
        ExperimentConfig(runs=1, horizon_slots=200), network_counts=(3,), betas=(0.1,)
    )
    assert len(rows) == 1
    assert rows[0]["switches_within_bound"] in (True, False)
    assert np.isfinite(rows[0]["mean_weak_regret_mb"])
