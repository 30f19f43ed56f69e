"""Benchmark: Fig. 6 - slots to stable state vs networks and devices.

Regenerates the paper artifact by calling ``repro.experiments.fig06_scalability.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import fig06_scalability

from conftest import bench_config, report


def test_fig06_scalability(benchmark):
    config = bench_config(fig06_scalability, default_runs=2, default_horizon=2400)
    result = benchmark.pedantic(fig06_scalability.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 6 - slots to stable state vs networks and devices", format_table(result))
