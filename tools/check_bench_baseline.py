#!/usr/bin/env python3
"""Bench drift gate: committed BENCH_*.json artifacts must stay in bounds.

The repo commits each headline benchmark's report JSON at the repo
root (``BENCH_dispatch_overhead.json``, ``BENCH_incident_response.json``)
as the record of what the current code achieves. Those artifacts rot
two ways: a regenerated file can quietly carry a regression (a gate
metric drifting toward its limit), or the committed file can fall out
of date against the code that is supposed to reproduce it. This tool
closes both holes:

* **default mode** — every registered metric in every committed
  artifact is checked against its declared bounds (``min`` / ``max`` /
  ``equals``). Cheap, file-only, runs in CI next to the knob-table
  gate; it needs no simulation.
* **``--fresh DIR``** — compares freshly generated reports in ``DIR``
  against the committed ones: every metric with a ``rel_tol`` must
  match within that relative tolerance. Virtual-time metrics are
  bit-for-bit deterministic, so their tolerance is zero; wall-clock
  metrics carry no ``rel_tol`` and are skipped (their bounds still
  apply to the fresh file).

Metric paths are dotted keys with optional ``[i]`` list indexing
(negative indices allowed), e.g. ``tracing[-1].decision_overhead_ratio``.

Exit status is the number of violations (0 = success). Usage::

    python tools/check_bench_baseline.py [--fresh DIR] [ROOT]
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

#: Artifact file -> metric path -> bound spec. Bounds (``min`` /
#: ``max`` / ``equals``) always apply; ``rel_tol`` additionally makes
#: the metric comparable in ``--fresh`` mode (0.0 = bit-for-bit, the
#: right tolerance for virtual-time results).
REGISTRY: dict[str, dict[str, dict]] = {
    "BENCH_dispatch_overhead.json": {
        # Dispatch-order semantics: the index picks what the scan picks.
        "picks_identical": {"equals": True},
        # O(log n) flatness and the headline speedup (wall-clock: bounds
        # only, never compared run-to-run).
        "per_decision_growth": {"max": 2.0},
        "speedup_by_lanes.10000": {"min": 10.0},
        # Tracing acceptance with the observability loop attached.
        "tracing[-1].lanes": {"equals": 10_000, "rel_tol": 0.0},
        "tracing[-1].decision_overhead_ratio": {"max": 1.05},
        # The adaptive-sampling escalation is deterministic:
        # min(max_rate, 10 x 1%) = 10%.
        "tracing[-1].escalated_rate": {"equals": 0.1, "rel_tol": 0.0},
        "tracing[-1].loop_scrapes": {"min": 1},
    },
    "BENCH_incident_response.json": {
        # Virtual-time simulation: every number below is deterministic,
        # so fresh runs must reproduce the committed file exactly.
        "params.firing_bound_scrapes": {"equals": 10, "rel_tol": 0.0},
        # Detection: the burn alert fired, inside the bounded window.
        "arms.observe.first_firing_s": {"min": 0.0, "max": 1.0, "rel_tol": 0.0},
        "arms.reactive.first_firing_s": {"min": 0.0, "max": 1.0, "rel_tol": 0.0},
        # Equal peak fleet in both arms (the comparison's precondition).
        "arms.observe.peak_workers": {"equals": 4, "rel_tol": 0.0},
        "arms.reactive.peak_workers": {"equals": 4, "rel_tol": 0.0},
        # Reaction: the observe arm denies nothing; the reactive arm
        # sheds the burning tenant and escalates only its sampling.
        "arms.observe.admitted": {"rel_tol": 0.0},
        "arms.reactive.denied.rejected_rate_limit": {"min": 1, "rel_tol": 0.0},
        "arms.reactive.policy.boosts": {"min": 1, "rel_tol": 0.0},
        "arms.reactive.policy.sheds": {"min": 1, "rel_tol": 0.0},
        "arms.reactive.sampler.peak_rates.hot": {"equals": 0.2, "rel_tol": 0.0},
        # Outcome: acting keeps the recovery-phase hot p95 strictly
        # below the observe arm's (bounds hold the gap, rel_tol pins
        # the exact deterministic values).
        "arms.observe.phase_p95_ms.hot.recovery": {"min": 2000.0, "rel_tol": 0.0},
        "arms.reactive.phase_p95_ms.hot.recovery": {"max": 2000.0, "rel_tol": 0.0},
        # The light tenant stays protected in both arms.
        "arms.observe.phase_p95_ms.light.recovery": {"max": 250.0, "rel_tol": 0.0},
        "arms.reactive.phase_p95_ms.light.recovery": {"max": 250.0, "rel_tol": 0.0},
    },
    "BENCH_chaos_recovery.json": {
        # Virtual-time simulation over the write-ahead journal: every
        # number is deterministic, so fresh runs must reproduce the
        # committed file exactly.
        # 100% settlement, exactly once, in both arms.
        "arms.steady.exactly_once": {"equals": True, "rel_tol": 0.0},
        "arms.chaos.exactly_once": {"equals": True, "rel_tol": 0.0},
        "arms.steady.settled": {"equals": 260, "rel_tol": 0.0},
        "arms.chaos.settled": {"equals": 260, "rel_tol": 0.0},
        "arms.chaos.duplicates": {"equals": 0, "rel_tol": 0.0},
        "arms.chaos.denied": {"equals": 0, "rel_tol": 0.0},
        # The crash fired once, at the armed boundary inside the spike
        # window, and one recovery restored real open work.
        "arms.steady.incarnations": {"equals": 1, "rel_tol": 0.0},
        "arms.chaos.incarnations": {"equals": 2, "rel_tol": 0.0},
        "arms.chaos.crashes[0].at_s": {"min": 0.5, "max": 1.0, "rel_tol": 0.0},
        "arms.chaos.recoveries[0].restored_open": {"min": 1, "rel_tol": 0.0},
        "arms.chaos.recoveries[0].released": {"min": 1, "rel_tol": 0.0},
        # The record stream itself: how many records, when snapshots
        # fall, where the crashed journal ended. How a record is
        # encoded may change; how many there are may not.
        "arms.steady.journal.records_appended": {"equals": 1165, "rel_tol": 0.0},
        "arms.steady.journal.snapshots_taken": {"equals": 18, "rel_tol": 0.0},
        "arms.chaos.journal.last_seq": {"equals": 1147, "rel_tol": 0.0},
        "arms.chaos.recoveries[0].records_replayed": {"equals": 0, "rel_tol": 0.0},
        # Bounded tail penalty: one restart downtime plus re-serve slack
        # (the committed params carry the same bound the bench asserts).
        "p99_penalty_s": {"min": 0.0, "max": 0.75, "rel_tol": 0.0},
        "params.restart_cost_s": {"equals": 0.25, "rel_tol": 0.0},
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


def _drifted(committed, fresh, rel_tol: float) -> bool:
    """Whether a fresh value left the committed value's tolerance."""
    if isinstance(committed, bool) or isinstance(fresh, bool):
        return bool(committed) is not bool(fresh)
    return not math.isclose(
        float(fresh), float(committed), rel_tol=rel_tol, abs_tol=rel_tol
    )


def check(root: Path, fresh_dir: Path | None) -> list[str]:
    """Every violation across all registered artifacts."""
    errors: list[str] = []
    for filename, metrics in REGISTRY.items():
        committed_path = root / filename
        if not committed_path.exists():
            errors.append(f"{committed_path}: registered artifact missing")
            continue
        committed = json.loads(committed_path.read_text())
        fresh = None
        if fresh_dir is not None:
            fresh_path = fresh_dir / filename
            if not fresh_path.exists():
                errors.append(
                    f"{fresh_path}: --fresh given but no fresh report"
                )
            else:
                fresh = json.loads(fresh_path.read_text())
        for path, spec in metrics.items():
            try:
                value = lookup(committed, path)
            except (KeyError, IndexError, TypeError):
                errors.append(f"{filename}: metric {path!r} not found")
                continue
            problem = _violates_bounds(value, spec)
            if problem is not None:
                errors.append(f"{filename}: {path}: {problem}")
            if fresh is None or "rel_tol" not in spec:
                continue
            try:
                fresh_value = lookup(fresh, path)
            except (KeyError, IndexError, TypeError):
                errors.append(f"{filename} (fresh): metric {path!r} not found")
                continue
            if _drifted(value, fresh_value, spec["rel_tol"]):
                errors.append(
                    f"{filename}: {path}: fresh run produced "
                    f"{fresh_value!r}, committed baseline says {value!r} "
                    f"(rel_tol {spec['rel_tol']}) — regenerate the "
                    "artifact or find the nondeterminism"
                )
    return errors


def main(argv: list[str]) -> int:
    """Check committed artifacts; with ``--fresh DIR``, diff against it."""
    fresh_dir: Path | None = None
    args = list(argv)
    if "--fresh" in args:
        at = args.index("--fresh")
        try:
            fresh_dir = Path(args[at + 1])
        except IndexError:
            print("--fresh requires a directory", file=sys.stderr)
            return 2
        del args[at : at + 2]
    root = Path(args[0]) if args else (
        Path(__file__).resolve().parent.parent
    )
    errors = check(root, fresh_dir)
    for error in errors:
        print(error, file=sys.stderr)
    n_metrics = sum(len(m) for m in REGISTRY.values())
    mode = "bounds + fresh-diff" if fresh_dir is not None else "bounds"
    print(
        f"checked {n_metrics} registered metric(s) across "
        f"{len(REGISTRY)} artifact(s) [{mode}]: {len(errors)} violation(s)"
    )
    return min(len(errors), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
