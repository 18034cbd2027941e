#!/usr/bin/env python3
"""Bench bounds gate: committed BENCH_*.json artifacts must stay in bounds.

The repo commits each benchmark's report at the repo root as
``BENCH_<name>.json``, the record of what the current code achieves.
Every virtual-time artifact is regenerated byte for byte by CI's
artifact gate (``git diff --exit-code``), so drift is caught there.
What a byte diff cannot say is whether a regenerated number is still
*acceptable*: this tool checks every registered metric of the
committed artifacts against its declared bounds (``min`` / ``max`` /
``equals``). Cheap and file-only; it runs in CI next to the knob-table
gate and needs no simulation.

Metric paths are dotted keys with optional ``[i]`` list indexing
(negative indices allowed), e.g. ``tracing[-1].decision_overhead_ratio``
— the syntax :func:`repro.bench.report.render` prints beside every
number.

Exit status is the number of violations (0 = success). Usage::

    python tools/check_bench_baseline.py
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Artifact file -> metric path -> bound spec (``min`` / ``max`` /
#: ``equals``).
REGISTRY: dict[str, dict[str, dict]] = {
    "BENCH_dispatch_overhead.json": {
        # Dispatch-order semantics: the index picks what the scan picks.
        "picks_identical": {"equals": True},
        # O(log n) flatness and the headline speedup (wall-clock).
        "per_decision_growth": {"max": 2.0},
        "speedup_by_lanes.10000": {"min": 10.0},
        # Tracing acceptance with the observability loop attached.
        "tracing[-1].lanes": {"equals": 10_000},
        "tracing[-1].decision_overhead_ratio": {"max": 1.05},
        # The adaptive-sampling escalation is deterministic:
        # min(max_rate, 10 x 1%) = 10%.
        "tracing[-1].escalated_rate": {"equals": 0.1},
        "tracing[-1].loop_scrapes": {"min": 1},
    },
    "BENCH_incident_response.json": {
        "params.firing_bound_scrapes": {"equals": 10},
        # Detection: the burn alert fired, inside the bounded window.
        "arms.observe.first_firing_s": {"min": 0.0, "max": 1.0},
        "arms.reactive.first_firing_s": {"min": 0.0, "max": 1.0},
        # Equal peak fleet in both arms (the comparison's precondition).
        "arms.observe.peak_workers": {"equals": 4},
        "arms.reactive.peak_workers": {"equals": 4},
        # Reaction: the observe arm denies nothing; the reactive arm
        # sheds the burning tenant and escalates only its sampling.
        "arms.reactive.denied.rejected_rate_limit": {"min": 1},
        "arms.reactive.policy.boosts": {"min": 1},
        "arms.reactive.policy.sheds": {"min": 1},
        "arms.reactive.sampler.peak_rates.hot": {"equals": 0.2},
        # Outcome: acting keeps the recovery-phase hot p95 strictly
        # below the observe arm's.
        "arms.observe.phase_p95_ms.hot.recovery": {"min": 2000.0},
        "arms.reactive.phase_p95_ms.hot.recovery": {"max": 2000.0},
        # The light tenant stays protected in both arms.
        "arms.observe.phase_p95_ms.light.recovery": {"max": 250.0},
        "arms.reactive.phase_p95_ms.light.recovery": {"max": 250.0},
    },
    "BENCH_chaos_recovery.json": {
        # 100% settlement, exactly once, in both arms.
        "arms.steady.exactly_once": {"equals": True},
        "arms.chaos.exactly_once": {"equals": True},
        "arms.steady.settled": {"equals": 260},
        "arms.chaos.settled": {"equals": 260},
        "arms.chaos.duplicates": {"equals": 0},
        "arms.chaos.denied": {"equals": 0},
        # The crash fired once, at the armed boundary inside the spike
        # window, and one recovery restored real open work.
        "arms.steady.incarnations": {"equals": 1},
        "arms.chaos.incarnations": {"equals": 2},
        "arms.chaos.crashes[0].at_s": {"min": 0.5, "max": 1.0},
        "arms.chaos.recoveries[0].restored_open": {"min": 1},
        "arms.chaos.recoveries[0].released": {"min": 1},
        # The record stream itself: how many records, when snapshots
        # fall, where the crashed journal ended. How a record is
        # encoded may change; how many there are may not. A snapshot is
        # written at the first gateway tick after its cadence, not inside
        # the append that reaches it: the chaos arm's recovery replays 59
        # records, not 62 (the artifact's resumed journal also takes 4
        # snapshots, not 5; that count is not pinned).
        "arms.steady.journal.records_appended": {"equals": 635},
        "arms.steady.journal.snapshots_taken": {"equals": 9},
        "arms.chaos.journal.last_seq": {"equals": 651},
        "arms.chaos.recoveries[0].records_replayed": {"equals": 59},
        # Bounded tail penalty: one restart downtime plus re-serve slack
        # (the committed params carry the same bound the bench asserts).
        "p99_penalty_s": {"min": 0.0, "max": 0.75},
        "params.restart_cost_s": {"equals": 0.25},
    },
}

_PATH_TOKEN = re.compile(r"\[(-?\d+)\]|([^.\[\]]+)")


def lookup(doc, path: str):
    """Resolve a dotted/indexed metric path inside a report dict."""
    node = doc
    for index, key in _PATH_TOKEN.findall(path):
        if index:
            node = node[int(index)]
        else:
            node = node[key]
    return node


def _violates_bounds(value, spec: dict) -> str | None:
    """A human-readable bound violation, or ``None`` if in bounds."""
    if "equals" in spec:
        expected = spec["equals"]
        if isinstance(expected, bool):
            if bool(value) is not expected:
                return f"expected {expected}, got {value!r}"
        elif not math.isclose(float(value), float(expected), rel_tol=1e-9):
            return f"expected {expected}, got {value!r}"
    if "min" in spec and float(value) < spec["min"]:
        return f"{value!r} below min {spec['min']}"
    if "max" in spec and float(value) > spec["max"]:
        return f"{value!r} above max {spec['max']}"
    return None


def check(root: Path) -> list[str]:
    """Every violation across all registered artifacts under ``root``."""
    errors: list[str] = []
    for filename, metrics in REGISTRY.items():
        path = root / filename
        if not path.exists():
            errors.append(f"{path}: registered artifact missing")
            continue
        doc = json.loads(path.read_text())
        for metric, spec in metrics.items():
            try:
                value = lookup(doc, metric)
            except (KeyError, IndexError, TypeError):
                errors.append(f"{filename}: metric {metric!r} not found")
                continue
            problem = _violates_bounds(value, spec)
            if problem is not None:
                errors.append(f"{filename}: {metric}: {problem}")
    return errors


def main(argv: list[str]) -> int:
    """Check the committed artifacts' bounds; takes no arguments."""
    if argv:
        print(f"unknown argument: {argv[0]}", file=sys.stderr)
        return 2
    errors = check(ROOT)
    for error in errors:
        print(error, file=sys.stderr)
    n_metrics = sum(len(m) for m in REGISTRY.values())
    print(
        f"checked {n_metrics} registered metric(s) across "
        f"{len(REGISTRY)} artifact(s): {len(errors)} violation(s)"
    )
    return min(len(errors), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
