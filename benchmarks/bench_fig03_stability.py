"""Benchmark: Fig. 3 - percentage of runs reaching a stable state.

Regenerates the paper artifact by calling ``repro.experiments.fig03_stability.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import fig03_stability

from conftest import bench_config, report


def test_fig03_stability(benchmark):
    config = bench_config(fig03_stability, default_runs=3, default_horizon=1200)
    result = benchmark.pedantic(fig03_stability.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 3 - percentage of runs reaching a stable state", format_table(result))
