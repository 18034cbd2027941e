"""The bounds gate over the committed BENCH_*.json artifacts: every
registered metric resolves, a violated bound names its metric path, and
the retired fresh-diff mode is refused rather than silently ignored."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "check_bench_baseline", REPO_ROOT / "tools" / "check_bench_baseline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_registered_path_resolves_in_its_committed_artifact(tool):
    for filename, metrics in tool.REGISTRY.items():
        doc = json.loads((REPO_ROOT / filename).read_text())
        for path in metrics:
            value = tool.lookup(doc, path)
            assert isinstance(value, (bool, int, float)), (filename, path)


def test_a_violated_bound_is_reported_with_its_path(tool, tmp_path):
    for filename in tool.REGISTRY:
        shutil.copy(REPO_ROOT / filename, tmp_path / filename)
    artifact = tmp_path / "BENCH_chaos_recovery.json"
    doc = json.loads(artifact.read_text())
    doc["arms"]["chaos"]["duplicates"] = 3
    artifact.write_text(json.dumps(doc))
    assert tool.check(tmp_path) == [
        "BENCH_chaos_recovery.json: arms.chaos.duplicates: expected 0, got 3"
    ]


def test_a_missing_metric_is_reported_with_its_path(tool, tmp_path):
    for filename in tool.REGISTRY:
        shutil.copy(REPO_ROOT / filename, tmp_path / filename)
    artifact = tmp_path / "BENCH_incident_response.json"
    doc = json.loads(artifact.read_text())
    del doc["arms"]["reactive"]["policy"]
    artifact.write_text(json.dumps(doc))
    errors = tool.check(tmp_path)
    assert errors and all("arms.reactive.policy." in error for error in errors)


def test_fresh_is_rejected_as_an_unknown_argument(tool, capsys):
    assert tool.main(["--fresh", "out"]) == 2
    assert "unknown argument: --fresh" in capsys.readouterr().err
