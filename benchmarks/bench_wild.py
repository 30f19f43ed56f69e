"""Benchmark: Section VII-B - in-the-wild 500 MB download race.

Regenerates the paper artifact by calling ``repro.experiments.wild.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.experiments import wild

from conftest import bench_config, report


def test_wild(benchmark):
    config = bench_config(wild, default_runs=12, default_horizon=None)
    result = benchmark.pedantic(wild.run, args=(config,), rounds=1, iterations=1)
    report("Section VII-B - in-the-wild 500 MB download race", result)
