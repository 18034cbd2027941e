"""The traffic tracer: which functions a production root enters, the
report over them, and a full run that leaves the tree as it found it."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "prod_coverage", REPO_ROOT / "tools" / "prod_coverage.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULE = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def inner(*args):
        return fn(*args)

    return inner


@deco
def decorated():
    def nested():
        return 1

    return nested()


def never():
    x = 2
    return x
'''


def report_row(text, module):
    """``(funcs, never, lines, never lines)`` of one module's report row."""
    for line in text.splitlines():
        if line.split() and line.split()[0] == module:
            return tuple(int(value) for value in line.split()[1:])
    return None


def test_the_roots_are_every_bench_example_workload_and_ci_tool(tool):
    kinds = [root.partition(":")[0] for root in tool.ROOTS]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "bench": 15,
        "example": 11,
        "e2e": 6,
        "tool": 3,
    }


def test_report_counts_nested_and_decorated_functions_entered(
    tool, tmp_path, monkeypatch, capsys
):
    package = tmp_path / "src" / "covfixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    script = tmp_path / "root.py"
    script.write_text("from covfixture.mod import decorated\ndecorated()\n")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    out = tmp_path / "out"
    try:
        tool.record(f"example:{script}", out, package)
    finally:
        for name in ("covfixture", "covfixture.mod"):
            sys.modules.pop(name, None)
    tool.report(out, package)
    # deco, inner, decorated and nested were entered; only never was not.
    assert report_row(capsys.readouterr().out, "mod.py") == (5, 1, 18, 3)


def test_a_full_run_puts_back_every_tracked_file_a_root_rewrites(tool, tmp_path):
    rewritten = tmp_path / "BENCH_wall_clock.json"
    deleted = tmp_path / "artifact.txt"
    untouched = tmp_path / "notes.md"
    originals = {rewritten: b'{"wall_s": 1.5}\n', deleted: b"a\r\nb", untouched: b"x"}
    for path, data in originals.items():
        path.write_bytes(data)
    script = tmp_path / "root.py"
    script.write_text(
        f"from pathlib import Path\n"
        f"Path({str(rewritten)!r}).write_text('{{\"wall_s\": 2.7}}')\n"
        f"Path({str(deleted)!r}).unlink()\n"
    )
    restored = tool.run_roots([f"example:{script}"], tmp_path / "out", list(originals))
    assert sorted(restored) == sorted([rewritten, deleted])
    assert {path: path.read_bytes() for path in originals} == originals
    assert [path.name for path in (tmp_path / "out").glob("*.json")] != []
