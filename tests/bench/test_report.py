"""The one renderer and the one writer behind every BENCH_*.json.

Every number ``render`` prints must sit beside a path the bounds gate
can resolve to exactly that number, and ``write`` must keep producing
the committed bytes and refuse what no metric path could name."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.bench import report
from repro.bench.report import render, write

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACTS = sorted(REPO_ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def lookup():
    spec = importlib.util.spec_from_file_location(
        "check_bench_baseline", REPO_ROOT / "tools" / "check_bench_baseline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.lookup


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A scratch repository root for ``write`` to commit into."""
    (tmp_path / "pyproject.toml").touch()
    monkeypatch.setattr(report, "ROOT", tmp_path)
    return tmp_path


def printed(text: str) -> list[tuple[str, object]]:
    """Read ``render``'s output back as (path, value) pairs."""
    pairs = []
    title = columns = None
    for line in text.splitlines():
        if line.startswith("  "):
            if columns is None:
                columns = line.split()
                continue
            key, *cells = line.split()
            row = f"{title}.{key}" if title else key
            pairs += [
                (f"{row}.{column}", json.loads(cell))
                for column, cell in zip(columns, cells, strict=True)
            ]
        else:
            path, _, value = line.partition(" ")
            if value.strip():
                pairs.append((path, json.loads(value)))
            else:
                title, columns = path, None
    return pairs


def number_leaves(node, path=""):
    """Paths of every numeric or bool leaf, in lookup syntax."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from number_leaves(child, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from number_leaves(child, f"{path}[{i}]")
    elif isinstance(node, (bool, int, float)):
        yield path


def test_tables_and_leaves():
    doc = {
        "arms": {"a": {"p50": 1, "ok": True}, "b": {"p50": 2.5, "ok": None}},
        "tags": ["x y", 3],
        "empty": {},
    }
    assert render(doc) == "\n".join(
        [
            "arms",
            "     p50  ok",
            "  a  1    true",
            "  b  2.5  null",
            'tags[0]  "x y"',
            "tags[1]  3",
            "empty    {}",
        ]
    )


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda p: p.name)
def test_every_number_is_printed_beside_its_path(artifact, lookup):
    doc = json.loads(artifact.read_text())
    pairs = printed(render(doc))
    for path, value in pairs:
        resolved = lookup(doc, path)
        assert resolved == value and type(resolved) is type(value), path
    assert set(number_leaves(doc)) <= {path for path, _ in pairs}


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda p: p.name)
def test_write_reproduces_the_committed_bytes(artifact, checkout):
    name = artifact.stem.removeprefix("BENCH_")
    out = write(name, json.loads(artifact.read_text()))
    assert out == checkout / artifact.name
    assert out.read_bytes() == artifact.read_bytes()


@pytest.mark.parametrize(
    "doc",
    [
        {"rates": {50.0: {}}},
        {"arms": [{"1.5ms": 1}]},
        {"lanes[0]": 1},
        {"two words": 1},
        {"p99": math.nan},
        {"arms": [{"throughput_rps": math.inf}]},
    ],
)
def test_write_refuses_what_no_path_can_name(doc, checkout):
    with pytest.raises(ValueError):
        write("bad", doc)
    assert not (checkout / "BENCH_bad.json").exists()


def test_write_refuses_a_root_that_is_not_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(report, "ROOT", tmp_path)
    with pytest.raises(FileNotFoundError):
        write("ok", {"p50": 1})
    assert not (tmp_path / "BENCH_ok.json").exists()
