#!/usr/bin/env python3
"""Run detlint, the repo's determinism & hot-path analyzer, over a tree.

Thin wrapper around :mod:`repro.analysis.cli` so CI and developers can
invoke it without installing the package::

    python tools/run_detlint.py src/repro
    python tools/run_detlint.py --verbose src/repro/core
    python tools/run_detlint.py --list-rules

Exit status is 0 only when every scanned file is clean: no unsuppressed
findings and every ``# detlint: allow[...]`` pragma carries a reason.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
