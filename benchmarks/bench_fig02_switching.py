"""Benchmark: Fig. 2 - number of network switches per algorithm.

Regenerates the paper artifact by calling ``repro.experiments.fig02_switching.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import fig02_switching

from conftest import bench_config, report


def test_fig02_switching(benchmark):
    config = bench_config(fig02_switching, default_runs=3, default_horizon=600)
    result = benchmark.pedantic(fig02_switching.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 2 - number of network switches per algorithm", format_table(result))
