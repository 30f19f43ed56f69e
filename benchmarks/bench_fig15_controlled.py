"""Benchmark: Fig. 15 - testbed mixed: 7 Smart EXP3 + 7 Greedy devices.

Regenerates the paper artifact by calling ``repro.experiments.fig15_controlled_mixed.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig15_controlled_mixed

from conftest import bench_config, report


def test_fig15_controlled(benchmark):
    config = bench_config(fig15_controlled_mixed, default_runs=3, default_horizon=480)
    result = benchmark.pedantic(fig15_controlled_mixed.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 15 - testbed mixed: 7 Smart EXP3 + 7 Greedy devices", result)
