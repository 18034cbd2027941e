#!/usr/bin/env python3
"""Print the e2e round-digest goldens of ``tests/integration/test_e2e_digests.py``.

Serves each named workload's pooled rounds at the test's scale and
sub-seeds, exactly as the test does, and prints its ``GOLDEN_DIGESTS``
entry ready to paste. A change meant to alter modelled behaviour
re-pins its goldens with this.

Usage::

    python tools/e2e_goldens.py incident [max_rate ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.integration.test_e2e_digests import (  # noqa: E402
    build_zoo_and_oracle,
    measure,
    round_digests,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=list(measure.WORKLOADS))
    args = parser.parse_args(argv)
    zoo, oracle = build_zoo_and_oracle()
    for workload in args.workloads:
        print(f'    "{workload}": (')
        for digest in round_digests(workload, zoo, oracle):
            print(f'        "{digest}",')
        print("    ),")
    return 0


if __name__ == "__main__":
    sys.exit(main())
