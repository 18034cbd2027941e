"""Command-line entrypoint for detlint (wrapped by ``tools/run_detlint.py``).

Exit status: 0 when the tree is clean (no unsuppressed findings, every
pragma well-formed), 1 otherwise, 2 for usage errors — so the CI step
is just ``python tools/run_detlint.py src/repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.framework import all_rules, analyze_paths
from repro.analysis.report import render_human


def build_parser() -> argparse.ArgumentParser:
    """The detlint argument parser."""
    parser = argparse.ArgumentParser(
        prog="detlint",
        description=(
            "AST-based determinism and hot-path lint enforcing this repo's "
            "bit-for-bit invariants (rules DET001-DET005, HOT001)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list pragma-suppressed findings with their justifications",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the analyzer; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}")
        return 0
    try:
        findings, files_scanned = analyze_paths(args.paths)
    except OSError as exc:
        print(f"detlint: {exc}", file=sys.stderr)
        return 2
    if files_scanned == 0:
        print("detlint: no python files found", file=sys.stderr)
        return 2
    print(render_human(findings, files_scanned, verbose=args.verbose))
    return 0 if not any(not f.suppressed for f in findings) else 1
