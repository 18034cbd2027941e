"""The knob-table gate: a Bench cell must cite files that exist and
that really mention the row's knobs."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "check_knob_table", REPO_ROOT / "tools" / "check_knob_table.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_with(tmp_path, *rows):
    readme = tmp_path / "README.md"
    readme.write_text(
        "| Knob | Where | Default | What it does | Bench |\n"
        "| --- | --- | --- | --- | --- |\n" + "".join(f"{row}\n" for row in rows)
    )
    return readme


def test_a_cell_naming_a_missing_file_fails(tool, tmp_path):
    readme = readme_with(
        tmp_path, "| `interval_s` | `FleetController` | 0.25 s | x | `bench_no_such_bench` |"
    )
    (error,) = tool.check_evidence(readme)
    assert "bench_no_such_bench" in error and "no existing file" in error


def test_a_cell_whose_files_never_mention_the_knob_fails(tool, tmp_path):
    readme = readme_with(
        tmp_path,
        "| `interval_s` / `no_such_knob` | `FleetController` | 0.25 s | x "
        "| `bench_fleet_autoscaling`, `tests/core/test_fleet.py::TestObservation` |",
    )
    (error,) = tool.check_evidence(readme)
    assert "['no_such_knob']" in error


def test_a_cell_naming_no_file_fails(tool, tmp_path):
    readme = readme_with(
        tmp_path, "| `interval_s` | `FleetController` | 0.25 s | x | forecaster unit tests |"
    )
    (error,) = tool.check_evidence(readme)
    assert "names no file" in error


def test_a_row_citing_the_files_that_set_its_knobs_passes(tool, tmp_path):
    readme = readme_with(
        tmp_path,
        "| `interval_s` | `FleetController` | 0.25 s | x | `bench_fleet_autoscaling` |",
        "| `slo_s` / `safety` | `QueueLatencySLOPolicy` | 50 ms / 0.8 | x "
        "| `examples/autoscaled_serving.py`, "
        "`tests/core/test_fleet.py::TestQueueLatencySLOPolicy` |",
    )
    assert tool.check_evidence(readme) == []


def test_the_real_readme_passes_and_main_keeps_its_exit_contract(tool, tmp_path):
    assert tool.check(REPO_ROOT / "README.md") == []
    assert tool.check_evidence(REPO_ROOT / "README.md") == []
    assert tool.main([str(REPO_ROOT / "README.md")]) == 0
    # Exit status is the number of mismatches, evidence errors included.
    broken = readme_with(
        tmp_path, "| `interval_s` | `FleetController` | 0.25 s | x | `bench_no_such_bench` |"
    )
    registered_but_missing = len(tool.REGISTRY) - 1
    assert tool.main([str(broken)]) == registered_but_missing + 1
