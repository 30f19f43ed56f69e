"""Benchmark: Table V - per-run median cumulative download (GB).

Regenerates the paper artifact by calling ``repro.experiments.tab05_download.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import tab05_download

from conftest import bench_config, report


def test_tab05_download(benchmark):
    config = bench_config(tab05_download, default_runs=3, default_horizon=600)
    result = benchmark.pedantic(tab05_download.run, args=(config,), rounds=1, iterations=1)
    report("Table V - per-run median cumulative download (GB)", format_table(result))
