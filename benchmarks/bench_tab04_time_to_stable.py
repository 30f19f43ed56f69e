"""Benchmark: Table IV - median slots to reach a stable state.

Regenerates the paper artifact by calling ``repro.experiments.tab04_time_to_stable.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import tab04_time_to_stable

from conftest import bench_config, report


def test_tab04_time_to_stable(benchmark):
    config = bench_config(tab04_time_to_stable, default_runs=3, default_horizon=1200)
    result = benchmark.pedantic(tab04_time_to_stable.run, args=(config,), rounds=1, iterations=1)
    report("Table IV - median slots to reach a stable state", format_table(result))
