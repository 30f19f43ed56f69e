"""Benchmark: Fig. 5 - std-dev of per-device cumulative download (MB).

Regenerates the paper artifact by calling ``repro.experiments.fig05_fairness.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import fig05_fairness

from conftest import bench_config, report


def test_fig05_fairness(benchmark):
    config = bench_config(fig05_fairness, default_runs=3, default_horizon=600)
    result = benchmark.pedantic(fig05_fairness.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 5 - std-dev of per-device cumulative download (MB)", format_table(result))
