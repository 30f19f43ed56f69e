"""Benchmark: Fig. 12 - Smart EXP3 selection process on traces 1 and 3.

Regenerates the paper artifact by calling ``repro.experiments.fig12_trace_selection.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig12_trace_selection

from conftest import bench_config, report


def test_fig12_trace(benchmark):
    config = bench_config(fig12_trace_selection, default_runs=10, default_horizon=None)
    result = benchmark.pedantic(fig12_trace_selection.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 12 - Smart EXP3 selection process on traces 1 and 3", result)
