"""Bench target for Table I: the model-repository capability matrix.

Regenerates the table and live-verifies every DLHub-column claim of
Tables I and II against the running system (see ``repro.bench.tables``).
"""

from conftest import run_once

from repro.bench.report import render, write
from repro.bench.tables import render_table1, run_experiment


def test_table1_regeneration(benchmark):
    table = run_once(benchmark, render_table1)
    print("\n" + table)
    # The paper's five columns, in order.
    for system in ("ModelHub", "Caffe Zoo", "ModelHub.ai", "Kipoi", "DLHub"):
        assert system in table
    assert "Elasticsearch" in table  # DLHub's search row


def test_table1_dlhub_claims_live(benchmark):
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    write("tables", report)
    failed = [claim for claim, ok in report["dlhub_claims"].items() if not ok]
    assert not failed, f"DLHub Table-I/II claims failed live checks: {failed}"
