#!/usr/bin/env python3
"""Docs drift gate: the README knob table must match the code.

The README's "Ops guide: autoscaling knobs" table states a default for
every knob and names, in its last ("Bench") cell, the files that
exercise it. Both rot silently, so this tool checks each against its
source of truth and fails CI on any mismatch.

**Defaults.** Each registered default is re-derived from
``inspect.signature`` on the live classes; a registered knob whose row
disappeared is a mismatch too.

Each registry entry names the knob cell exactly as the README spells it
and the constructor parameters its "Default" cell quotes, in order.
The comparison is numeric: every number in the cell (with ``ms``/``s``
units normalized to seconds) must equal the corresponding signature
default. Prose-only cells ("off", "unset", derived expressions) are
deliberately unregistered — there is no machine-checkable fact behind
them.

**Evidence.** Every row's Bench cell must name at least one file, every
file it names must exist, and across those files every back-ticked
knob of the row must occur as a word. A back-ticked ``bench_x``
resolves to ``benchmarks/bench_x.py`` and ``src/repro/bench/x.py``
(either may be absent, not both), ``tests/...::Class`` to its file, and
any other span containing a ``/`` to the path as written; spans that
name no file (a workload, say) are ignored.

Exit status is the number of mismatches (0 = success). Usage::

    python tools/check_knob_table.py [README.md]
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: README knob cell -> (class path, parameter names the default cell
#: quotes, in cell order). ``None`` entries skip a number the cell
#: carries that is not a plain constructor default (derived values).
REGISTRY: dict[str, tuple[str, list[str]]] = {
    "`alpha` / `beta`": (
        "repro.core.adaptive.ArrivalForecaster",
        ["alpha", "beta"],
    ),
    "`interval_s`": ("repro.core.fleet.FleetController", ["interval_s"]),
    "`min_workers` / `max_workers`": (
        "repro.core.fleet.FleetController",
        ["min_workers", "max_workers"],
    ),
    "`ewma_alpha`": ("repro.core.fleet.FleetController", ["ewma_alpha"]),
    "`target_utilization` / `scale_down_utilization`": (
        "repro.core.fleet.TargetUtilizationPolicy",
        ["target_utilization", "scale_down_utilization"],
    ),
    "`slo_s` / `safety`": (
        "repro.core.fleet.QueueLatencySLOPolicy",
        ["slo_s", "safety"],
    ),
    "`autoscale_replicas` / `max_replicas_per_host`": (
        "repro.core.fleet.FleetController",
        ["max_replicas_per_host"],
    ),
    "`max_batch_size`": ("repro.core.runtime.ServingRuntime", ["max_batch_size"]),
    "`max_coalesce_delay_s`": (
        "repro.core.runtime.ServingRuntime",
        ["max_coalesce_delay_s"],
    ),
    "`lane_idle_ttl_s`": ("repro.core.runtime.ServingRuntime", ["lane_idle_ttl_s"]),
    "`drain_deadline_s`": (
        "repro.gateway.gateway.ServingGateway",
        ["drain_deadline_s"],
    ),
    "`sample_rate`": ("repro.core.telemetry.Tracer", ["sample_rate"]),
    "`slow_threshold_s`": (
        "repro.core.telemetry.Tracer",
        ["slow_threshold_s"],
    ),
    "`latency_slo_s` / `objective` / `window_s` / `burn_threshold`": (
        "repro.core.telemetry.SLOBurnMonitor",
        ["latency_slo_s", "objective", "window_s", "burn_threshold"],
    ),
    "`scrape_interval_s`": (
        "repro.core.obsloop.ObservabilityLoop",
        ["scrape_interval_s"],
    ),
    "`capacity`": ("repro.core.obsloop.SeriesStore", ["capacity"]),
    "`fast_window_s` / `slow_window_s` / `threshold`": (
        "repro.core.obsloop.BurnRateRule",
        ["fast_window_s", "slow_window_s", "threshold"],
    ),
    "`boost` / `shed_fraction`": (
        "repro.core.obsloop.ReactiveSLOPolicy",
        ["boost", "shed_fraction"],
    ),
    "`escalation` / `max_rate` / `decay`": (
        "repro.core.obsloop.AdaptiveSampler",
        ["escalation", "max_rate", "decay"],
    ),
    "`snapshot_every_records`": (
        "repro.durability.journal.Journal",
        ["snapshot_every_records"],
    ),
    "`restart_cost_s`": (
        "repro.durability.chaos.ChaosHarness",
        ["restart_cost_s"],
    ),
    "`visibility_timeout_s` / `max_deliveries`": (
        "repro.messaging.queue.TaskQueue",
        ["visibility_timeout_s", "max_deliveries"],
    ),
    # `durable_store` (unset/None default) is a prose cell with no
    # machine-checkable number, deliberately unregistered.
}

#: Numbers with an optional time unit, e.g. "0.25 s", "10 ms", "64".
NUMBER_RE = re.compile(r"(\d+(?:\.\d+)?)\s*(ms|s)?\b")
UNIT_SCALE = {"": 1.0, "s": 1.0, "ms": 1e-3}
#: A back-ticked span of a table cell.
TICKED_RE = re.compile(r"`([^`]+)`")


def signature_default(class_path: str, param: str) -> float:
    """The constructor default of ``param`` on the class at ``class_path``."""
    module_path, _, class_name = class_path.rpartition(".")
    module = __import__(module_path, fromlist=[class_name])
    cls = getattr(module, class_name)
    value = inspect.signature(cls.__init__).parameters[param].default
    if value is inspect.Parameter.empty or not isinstance(
        value, (int, float)
    ):
        raise SystemExit(
            f"registry error: {class_path}({param}) has no numeric default "
            f"(got {value!r}) — unregister it or fix the registry"
        )
    return float(value)


def table_rows(readme: Path) -> list[list[str]]:
    """The cells of every row of the README knob table."""
    rows: list[list[str]] = []
    in_table = False
    for line in readme.read_text().splitlines():
        if line.startswith("| Knob |"):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) >= 3 and not set(cells[0]) <= {"-", " "}:
                rows.append(cells)
    return rows


def knob_rows(readme: Path) -> dict[str, str]:
    """Knob cell -> Default cell for every row of the README knob table."""
    return {cells[0]: cells[2] for cells in table_rows(readme)}


def cell_numbers(cell: str) -> list[float]:
    """Every number in a Default cell, time units normalized to seconds."""
    return [
        float(value) * UNIT_SCALE[unit]
        for value, unit in NUMBER_RE.findall(cell)
    ]


def check(readme: Path) -> list[str]:
    """One human-readable error per drifted or missing registered knob."""
    rows = knob_rows(readme)
    if not rows:
        return [f"{readme}: knob table not found (header '| Knob |')"]
    errors: list[str] = []
    for knob, (class_path, params) in REGISTRY.items():
        cell = rows.get(knob)
        if cell is None:
            errors.append(
                f"{readme}: knob row {knob!r} is registered but missing "
                "from the table (renamed or dropped?)"
            )
            continue
        found = cell_numbers(cell)
        expected = [signature_default(class_path, p) for p in params]
        if found[: len(expected)] != expected:
            errors.append(
                f"{readme}: knob {knob!r} documents default(s) {found} but "
                f"{class_path} defines {expected} for {params} — update "
                "the table (or the registry, if the cell changed shape)"
            )
    return errors


def evidence_paths(span: str) -> list[Path]:
    """The files one back-ticked span of a Bench cell names (existing
    or not); empty when the span names no file."""
    target = span.split("::")[0]
    if "/" in target:
        return [REPO_ROOT / target]
    if target.startswith("bench_"):
        return [
            REPO_ROOT / "benchmarks" / f"{target}.py",
            REPO_ROOT / "src" / "repro" / "bench" / f"{target[len('bench_'):]}.py",
        ]
    return []


def check_evidence(readme: Path) -> list[str]:
    """One error per row whose Bench cell names a missing file, names no
    file at all, or names files that never mention one of its knobs."""
    errors: list[str] = []
    for cells in table_rows(readme):
        knob_cell, bench_cell = cells[0], cells[-1]
        files: list[Path] = []
        missing: list[str] = []
        for span in TICKED_RE.findall(bench_cell):
            candidates = evidence_paths(span)
            existing = [path for path in candidates if path.is_file()]
            if candidates and not existing:
                missing.append(span)
            files += existing
        text = "".join(path.read_text() for path in files)
        # A knob's name is the leading identifier of its back-ticked
        # span (``PredictiveScaling(base=...)`` -> ``PredictiveScaling``).
        knobs = [
            match.group()
            for span in TICKED_RE.findall(knob_cell)
            if (match := re.match(r"\w+", span))
        ]
        unmentioned = [
            knob for knob in knobs if not re.search(rf"\b{knob}\b", text)
        ]
        if missing:
            errors.append(
                f"{readme}: knob {knob_cell!r} cites {missing} in its Bench "
                "cell, which resolve(s) to no existing file"
            )
        elif not files:
            errors.append(
                f"{readme}: knob {knob_cell!r} names no file in its Bench cell "
                f"({bench_cell!r})"
            )
        elif unmentioned:
            errors.append(
                f"{readme}: knob {knob_cell!r}: {unmentioned} never occur(s) in "
                f"the files its Bench cell names ({bench_cell!r}) — cite the "
                "file that really sets the knob, or delete the row with its "
                "option"
            )
    return errors


def main(argv: list[str]) -> int:
    """Check the knob table of the given README (default: repo root's)."""
    readme = Path(argv[0]) if argv else REPO_ROOT / "README.md"
    if not readme.exists():
        print(f"{readme}: file does not exist", file=sys.stderr)
        return 2
    errors = check(readme) + check_evidence(readme)
    for error in errors:
        print(error, file=sys.stderr)
    print(
        f"checked {len(REGISTRY)} registered knob(s) against "
        f"{len(knob_rows(readme))} table row(s): {len(errors)} mismatch(es)"
    )
    return min(len(errors), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
