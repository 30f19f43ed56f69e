"""Experiment drivers: one module per table/figure of the paper's evaluation.

Each module exposes a ``run(config)`` function that executes the experiment
with configurable run counts/horizons (scaled-down defaults; ``paper_config()``
returns the full-scale parameters) and returns plain dictionaries/lists that
mirror the rows or series of the corresponding paper artifact.  The benchmark
harness in ``benchmarks/`` simply calls these functions.

| Module | Paper artifact |
|---|---|
| ``fig02_switching`` | Fig. 2 — number of network switches |
| ``fig03_stability`` | Fig. 3 — % runs stable / at Nash equilibrium |
| ``tab04_time_to_stable`` | Table IV — median slots to a stable state |
| ``fig04_distance_static`` | Fig. 4a/4b — distance to Nash equilibrium |
| ``tab05_download`` | Table V — cumulative download (GB) |
| ``fig05_fairness`` | Fig. 5 — fairness (std-dev of downloads) |
| ``unutilized`` | §VI-A — unutilized resources |
| ``fig06_scalability`` | Fig. 6 — scalability sweeps |
| ``fig07_dynamic_join`` | Fig. 7 — devices joining/leaving |
| ``fig08_dynamic_leave`` | Fig. 8 — devices leaving (freed resources) |
| ``fig09_mobility`` | Fig. 9 — mobility across service areas |
| ``fig10_switches_dynamic`` | Fig. 10 — switches, static vs dynamic |
| ``fig11_greedy_robustness`` | Fig. 11 — robustness against Greedy devices |
| ``tab06_traces`` | Table VI — trace-driven download / switching cost |
| ``fig12_trace_selection`` | Fig. 12 — selection process on traces 1 and 3 |
| ``tab07_controlled`` | Table VII — controlled testbed download % |
| ``fig13_controlled_static`` | Fig. 13 — testbed, static |
| ``fig14_controlled_dynamic`` | Fig. 14 — testbed, dynamic |
| ``fig15_controlled_mixed`` | Fig. 15 — testbed, mixed Smart/Greedy |
| ``wild`` | §VII-B — in-the-wild 500 MB download race |
| ``theory_validation`` | Theorems 2 & 3 — bounds vs empirical values |
| ``churn_stress`` | beyond the paper — generative churn/mobility/outage scenarios |
| ``megascale`` | beyond the paper — million-device populations on the sharded engine (``run`` takes its settings as parameters, not a config) |
"""

from repro.experiments.common import ALL_POLICIES, BLOCK_POLICIES, DYNAMIC_POLICIES, ExperimentConfig

__all__ = [
    "ALL_POLICIES",
    "BLOCK_POLICIES",
    "DYNAMIC_POLICIES",
    "ExperimentConfig",
]
