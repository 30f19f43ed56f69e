"""Benchmark: Table VII - controlled testbed download percentages.

Regenerates the paper artifact by calling ``repro.experiments.tab07_controlled.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import tab07_controlled

from conftest import bench_config, report


def test_tab07_controlled(benchmark):
    config = bench_config(tab07_controlled, default_runs=3, default_horizon=480)
    result = benchmark.pedantic(tab07_controlled.run, args=(config,), rounds=1, iterations=1)
    report("Table VII - controlled testbed download percentages", format_table(result))
