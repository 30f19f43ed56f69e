"""Benchmark: Theorems 2 and 3 - empirical switches/regret vs bounds.

Regenerates the paper artifact by calling ``repro.experiments.theory_validation.run``.
Set ``REPRO_BENCH_PAPER=1`` for the full-scale configuration.
"""

from repro.analysis.reporting import format_table
from repro.experiments import theory_validation

from conftest import bench_config, report


def test_theory_bounds(benchmark):
    config = bench_config(theory_validation, default_runs=3, default_horizon=400)
    result = benchmark.pedantic(theory_validation.run, args=(config,), rounds=1, iterations=1)
    report("Theorems 2 and 3 - empirical switches/regret vs bounds", format_table(result))
