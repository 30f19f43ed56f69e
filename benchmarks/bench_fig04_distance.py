"""Benchmark: Fig. 4a/4b - distance to Nash equilibrium over time.

Regenerates the paper artifact by calling ``repro.experiments.fig04_distance_static.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig04_distance_static

from conftest import bench_config, report


def test_fig04_distance(benchmark):
    config = bench_config(fig04_distance_static, default_runs=3, default_horizon=600)
    result = benchmark.pedantic(fig04_distance_static.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 4a/4b - distance to Nash equilibrium over time", result)
