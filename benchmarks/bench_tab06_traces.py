"""Benchmark: Table VI - trace-driven download and switching cost (MB).

Regenerates the paper artifact by calling ``repro.experiments.tab06_traces.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import tab06_traces

from conftest import bench_config, report


def test_tab06_traces(benchmark):
    config = bench_config(tab06_traces, default_runs=20, default_horizon=None)
    result = benchmark.pedantic(tab06_traces.run, args=(config,), rounds=1, iterations=1)
    report("Table VI - trace-driven download and switching cost (MB)", format_table(result))
