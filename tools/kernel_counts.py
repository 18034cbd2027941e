#!/usr/bin/env python3
"""Serve-loop kernel counts per request for one end-to-end workload.

Serves the pooled rounds of ``benchmarks/e2e`` (the sub-seeds
``run.py --seed N`` pools into its virtual-time metrics) once each,
with a counting wrapper around each kernel method, and prints the
calls per offered request. Only ``stack.serve()`` is counted; building
the stack is not. The counts are exact and fixed by the seed, so two
commits can be compared on any host.

Usage::

    PYTHONPATH=src python tools/kernel_counts.py --workload lane_churn --seed 0
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from measure import POOLED_ROUNDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core.runtime import ServingRuntime  # noqa: E402
from repro.core.zoo import build_zoo  # noqa: E402
from repro.sim.clock import VirtualClock  # noqa: E402
from repro.sim.events import EventLoop  # noqa: E402

#: row label -> (class, method) whose calls it counts.
KERNEL = {
    "loop passes (`due_phases`)": (EventLoop, "due_phases"),
    "`_next_window`": (ServingRuntime, "_next_window"),
    "`_route`": (ServingRuntime, "_route"),
    "`VirtualClock.now`": (VirtualClock, "now"),
    "timer `reschedule`": (EventLoop, "reschedule"),
}


def count(workload: str, seed: int) -> dict[str, float]:
    """Calls per offered request of every :data:`KERNEL` method while
    the pooled rounds of ``workload`` at ``seed`` serve."""
    zoo = build_zoo(seed=0, oqmd_entries=50, n_estimators=4)
    stacks = [
        WORKLOADS[workload].build(seed * POOLED_ROUNDS + turn, 1.0, zoo)
        for turn in range(POOLED_ROUNDS)
    ]
    calls = dict.fromkeys(KERNEL, 0)
    originals = {label: getattr(cls, name) for label, (cls, name) in KERNEL.items()}

    def counted(label, method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return method(*args, **kwargs)

        return wrapper

    for label, (cls, name) in KERNEL.items():
        setattr(cls, name, counted(label, originals[label]))
    try:
        for stack in stacks:
            stack.serve()
    finally:
        for label, (cls, name) in KERNEL.items():
            setattr(cls, name, originals[label])
    offered = sum(len(stack.offers) for stack in stacks)
    return {label: n / offered for label, n in calls.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for label, per_request in count(args.workload, args.seed).items():
        print(f"| {label} | {per_request:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
