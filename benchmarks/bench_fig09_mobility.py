"""Benchmark: Fig. 9 - devices moving across service areas.

Regenerates the paper artifact by calling ``repro.experiments.fig09_mobility.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig09_mobility

from conftest import bench_config, report


def test_fig09_mobility(benchmark):
    config = bench_config(fig09_mobility, default_runs=2, default_horizon=None)
    result = benchmark.pedantic(fig09_mobility.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 9 - devices moving across service areas", result)
