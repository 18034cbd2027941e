"""Shared fixtures for the benchmark suite.

Experiments are virtual-time simulations, so wall-clock variance is
meaningless across repeats; each bench runs its experiment once via
``benchmark.pedantic(rounds=1)``, prints its report with
``repro.bench.report.render`` (pytest -s shows it) and commits it as
``BENCH_<name>.json`` with ``repro.bench.report.write`` (EXPERIMENTS.md
is rendered from those).
"""

from __future__ import annotations

import itertools

import pytest


@pytest.fixture(autouse=True)
def fresh_task_ids(monkeypatch):
    """Start every bench's task ids at 1, as in a fresh process.

    Ids come from process-wide counters, and a request's pickled size
    (so its modelled transfer time) grows with its id's width; without
    this an artifact's bytes would depend on which benches ran before
    it in the same session.
    """
    from repro.core import tasks

    monkeypatch.setattr(tasks, "_task_counter", itertools.count(1))
    monkeypatch.setattr(tasks, "_uuid_counter", itertools.count(1))


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
