"""Shared fixtures for the benchmark suite.

Experiments are virtual-time simulations, so wall-clock variance is
meaningless across repeats; each bench runs its experiment once via
``benchmark.pedantic(rounds=1)``, prints its report with
``repro.bench.report.render`` (pytest -s shows it) and commits it as
``BENCH_<name>.json`` with ``repro.bench.report.write`` (EXPERIMENTS.md
is rendered from those).
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
