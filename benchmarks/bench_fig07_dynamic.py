"""Benchmark: Fig. 7 - 9 devices join at t=401 and leave after t=800.

Regenerates the paper artifact by calling ``repro.experiments.fig07_dynamic_join.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig07_dynamic_join

from conftest import bench_config, report


def test_fig07_dynamic(benchmark):
    config = bench_config(fig07_dynamic_join, default_runs=2, default_horizon=None)
    result = benchmark.pedantic(fig07_dynamic_join.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 7 - 9 devices join at t=401 and leave after t=800", result)
