#!/usr/bin/env python3
"""Which functions under ``src/repro`` does production traffic enter?

A developer tool for the next pruning pass (not a CI step; all roots
take ~10 minutes). One process per root records every function *entered*
under ``src/repro`` (``sys.setprofile``, ``call`` events)::

    python tools/prod_coverage.py --root bench:benchmarks/bench_fig5_batching.py
    python tools/prod_coverage.py --root example:examples/quickstart.py
    python tools/prod_coverage.py --root e2e:steady
    python tools/prod_coverage.py --root tool:"tools/check_knob_table.py README.md"
    python tools/prod_coverage.py --report

Each run writes ``<out>/<root>.json``, a list of ``[file, line, name]``;
``--report`` unions them and prints, per module, the functions and
function-body lines no root entered — what only ``tests/`` runs.
Benches run under ``--benchmark-disable``: pytest-benchmark's pedantic
runner clears the profile hook, which would hide everything it times.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import runpy
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def record(root: str, out: Path) -> None:
    """Run one root in this process and write what it entered."""
    kind, _, target = root.partition(":")
    entered: set[tuple[str, int, str]] = set()
    prefix = str(PACKAGE)

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            entered.add((code.co_filename[len(prefix) + 1 :], code.co_firstlineno, code.co_name))

    if kind == "e2e":  # its pickling recurses deeply under a profile hook
        sys.setrecursionlimit(20000)
        target = f"benchmarks/e2e/run.py --workload {target} --seed 0 --seconds 2 --trace 0"
    argv = shlex.split(target)
    sys.path[:0] = [str(PACKAGE.parent), str((REPO_ROOT / argv[0]).parent)]
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
    print(f"{root}: entered {len(entered)} function(s) under src/repro")


def report(out: Path) -> None:
    """Per module: functions and body lines no recorded root entered."""
    entered = {
        tuple(row) for path in sorted(out.glob("*.json")) for row in json.loads(path.read_text())
    }
    totals, outside_bench = [0, 0, 0, 0], [0, 0, 0, 0]
    print(f"{'module':44} {'funcs':>6} {'never':>6} {'lines':>7} {'never':>7}")
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(PACKAGE))
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
    """Record one ``--root`` or print the ``--report``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", help="bench:<file> | example:<file> | e2e:<workload> | tool:<argv>"
    )
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / ".prod_coverage")
    args = parser.parse_args()
    if args.root:
        record(args.root, args.out)
    if args.report or not args.root:
        report(args.out)


if __name__ == "__main__":
    main()
