"""Benchmark: Section VI-A - unutilized resources (GB).

Regenerates the paper artifact by calling ``repro.experiments.unutilized.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import unutilized

from conftest import bench_config, report


def test_unutilized(benchmark):
    config = bench_config(unutilized, default_runs=3, default_horizon=600)
    result = benchmark.pedantic(unutilized.run, args=(config,), rounds=1, iterations=1)
    report("Section VI-A - unutilized resources (GB)", format_table(result))
