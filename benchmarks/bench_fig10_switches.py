"""Benchmark: Fig. 10 - switches of persistent devices, static vs dynamic.

Regenerates the paper artifact by calling ``repro.experiments.fig10_switches_dynamic.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import fig10_switches_dynamic

from conftest import bench_config, report


def test_fig10_switches(benchmark):
    config = bench_config(fig10_switches_dynamic, default_runs=2, default_horizon=None)
    result = benchmark.pedantic(fig10_switches_dynamic.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 10 - switches of persistent devices, static vs dynamic", format_table(result))
