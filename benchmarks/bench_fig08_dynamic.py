"""Benchmark: Fig. 8 - 16 devices leave after t=600.

Regenerates the paper artifact by calling ``repro.experiments.fig08_dynamic_leave.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig08_dynamic_leave

from conftest import bench_config, report


def test_fig08_dynamic(benchmark):
    config = bench_config(fig08_dynamic_leave, default_runs=2, default_horizon=None)
    result = benchmark.pedantic(fig08_dynamic_leave.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 8 - 16 devices leave after t=600", result)
