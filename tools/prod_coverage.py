#!/usr/bin/env python3
"""Which functions under ``src/repro`` does production traffic enter?

A developer tool for the next pruning pass (not a CI step; all roots
take ~15 minutes on two cores). With no arguments it records every
production root in ``ROOTS`` (each in its own process), then reports::

    python tools/prod_coverage.py
    python tools/prod_coverage.py --root bench:benchmarks/bench_fig5_batching.py
    python tools/prod_coverage.py --root example:examples/quickstart.py
    python tools/prod_coverage.py --root e2e:steady
    python tools/prod_coverage.py --root tool:"tools/check_knob_table.py README.md"
    python tools/prod_coverage.py --report

One root records every function *entered* under ``src/repro``
(``sys.setprofile``, ``call`` events) into ``<out>/<root>.json``, a list
of ``[file, line, name]``; ``--report`` unions them and prints, per
module, the functions and function-body lines no root entered — what
only ``tests/`` runs. A full run puts back, byte for byte, any tracked
file a root rewrites (``bench_dispatch_overhead`` rewrites its
wall-clock artifact). Benches run under ``--benchmark-disable``:
pytest-benchmark's pedantic runner clears the profile hook, which would
hide everything it times.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
E2E_WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
CI_TOOLS = (
    "tools/check_knob_table.py README.md",
    "tools/generate_experiments_md.py",
    "tools/run_detlint.py src/repro",
)
ROOTS = (
    *(f"bench:benchmarks/{p.name}" for p in sorted(REPO_ROOT.glob("benchmarks/bench_*.py"))),
    *(f"example:examples/{p.name}" for p in sorted(REPO_ROOT.glob("examples/*.py"))),
    *(f"e2e:{workload}" for workload in E2E_WORKLOADS),
    *(f"tool:{argv}" for argv in CI_TOOLS),
)


def record(root: str, out: Path, package: Path = PACKAGE) -> None:
    """Run one root in this process and write what it entered."""
    kind, _, target = root.partition(":")
    entered: set[tuple[str, int, str]] = set()
    prefix = str(package)

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            entered.add((code.co_filename[len(prefix) + 1 :], code.co_firstlineno, code.co_name))

    if kind == "e2e":  # its pickling recurses deeply under a profile hook
        sys.setrecursionlimit(20000)
        target = f"benchmarks/e2e/run.py --workload {target} --seed 0 --seconds 2 --trace 0"
    argv = shlex.split(target)
    sys.path[:0] = [str(package.parent), str((REPO_ROOT / argv[0]).parent)]
    sys.setprofile(hook)
    try:
        if kind == "bench":
            import pytest

            pytest.main([*argv, "-q", "--benchmark-disable", "-p", "no:cacheprovider"])
        else:
            sys.argv = argv
            runpy.run_path(str(REPO_ROOT / argv[0]), run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.setprofile(None)
    out.mkdir(parents=True, exist_ok=True)
    name = re.sub(r"\W+", "_", root).strip("_")
    (out / f"{name}.json").write_text(json.dumps(sorted(entered)))
    print(f"{root}: entered {len(entered)} function(s) under {package.name}")


def tracked_files(repo: Path = REPO_ROOT) -> list[Path]:
    """Every file git tracks under ``repo``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z"], cwd=repo, capture_output=True, check=True
    ).stdout
    return [repo / name for name in listed.decode().split("\0") if name]


def run_roots(roots, out: Path, keep: list[Path]) -> list[Path]:
    """Record each root in its own process; return the files of ``keep``
    some root rewrote or deleted, each put back byte for byte."""
    saved = {path: path.read_bytes() for path in keep if path.is_file()}
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.json"):
        stale.unlink()
    rewritten: list[Path] = []
    for root in roots:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--root", root, "--out", str(out)],
            cwd=REPO_ROOT,
            check=False,
        )
        for path, data in saved.items():
            if not path.is_file() or path.read_bytes() != data:
                path.write_bytes(data)
                rewritten.append(path)
    return rewritten


def report(out: Path, package: Path = PACKAGE) -> None:
    """Per module: functions and body lines no recorded root entered."""
    entered = {
        tuple(row) for path in sorted(out.glob("*.json")) for row in json.loads(path.read_text())
    }
    totals, outside_bench = [0, 0, 0, 0], [0, 0, 0, 0]
    print(f"{'module':44} {'funcs':>6} {'never':>6} {'lines':>7} {'never':>7}")
    for path in sorted(package.rglob("*.py")):
        relative = str(path.relative_to(package))
        row = [0, 0, 0, 0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                lines = node.end_lineno - node.lineno + 1
                missed = (relative, first, node.name) not in entered
                for i, amount in enumerate((1, missed, lines, missed * lines)):
                    row[i] += amount
        totals = [a + b for a, b in zip(totals, row)]
        if not relative.startswith("bench/"):  # the bench harness is a root's own code
            outside_bench = [a + b for a, b in zip(outside_bench, row)]
        if row[1]:
            print(f"{relative:44} {row[0]:6} {row[1]:6} {row[2]:7} {row[3]:7}")
    for label, row in (("total", totals), ("total outside bench/", outside_bench)):
        print(f"{label:44} {row[0]:6} {row[1]:6} {row[2]:7} {row[3]:7}")


def main() -> None:
    """Record one ``--root``, print the ``--report``, or (no arguments)
    record every root in ``ROOTS`` and then report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", help="bench:<file> | example:<file> | e2e:<workload> | tool:<argv>"
    )
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / ".prod_coverage")
    args = parser.parse_args()
    if args.root:
        record(args.root, args.out)
    elif not args.report:
        for path in run_roots(ROOTS, args.out, tracked_files()):
            print(f"restored {path.relative_to(REPO_ROOT)}")
    if args.report or not args.root:
        report(args.out)


if __name__ == "__main__":
    main()
