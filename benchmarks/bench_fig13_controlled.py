"""Benchmark: Fig. 13 - testbed static: distance from average bit rate.

Regenerates the paper artifact by calling ``repro.experiments.fig13_controlled_static.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig13_controlled_static

from conftest import bench_config, report


def test_fig13_controlled(benchmark):
    config = bench_config(fig13_controlled_static, default_runs=3, default_horizon=480)
    result = benchmark.pedantic(fig13_controlled_static.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 13 - testbed static: distance from average bit rate", result)
