"""Benchmark: Fig. 14 - testbed dynamic: 9 devices leave at t=240.

Regenerates the paper artifact by calling ``repro.experiments.fig14_controlled_dynamic.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig14_controlled_dynamic

from conftest import bench_config, report


def test_fig14_controlled(benchmark):
    config = bench_config(fig14_controlled_dynamic, default_runs=3, default_horizon=None)
    result = benchmark.pedantic(fig14_controlled_dynamic.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 14 - testbed dynamic: 9 devices leave at t=240", result)
