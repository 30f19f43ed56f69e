"""Benchmark: Fig. 11 - robustness against greedy devices.

Regenerates the paper artifact by calling ``repro.experiments.fig11_greedy_robustness.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import fig11_greedy_robustness

from conftest import bench_config, report


def test_fig11_robustness(benchmark):
    config = bench_config(fig11_greedy_robustness, default_runs=2, default_horizon=600)
    result = benchmark.pedantic(fig11_greedy_robustness.run, args=(config,), rounds=1, iterations=1)
    report("Fig. 11 - robustness against greedy devices", result)
