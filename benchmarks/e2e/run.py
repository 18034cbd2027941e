"""End-to-end + per-layer benchmark of the whole serving stack, on both clocks.

Three ways in, one file:

``run.py --workload W --seed N --seconds S --trace 0|1 [--scale F]``
    One run in this process: prints every metric by name with its unit,
    then ``v_digest``, then — as the last line — the JSON result
    document. ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
    the per-layer ones (and writes ``out/trace_<workload>.json``).
    Exits non-zero if the correctness gate fails.

``run.py [--seed N] [--repeats R] [--seconds S] [--scale F] [--out FILE]``
    The whole suite: every workload, ``R`` untraced runs each
    (interleaved round-robin, one fresh child process at a time) plus
    one traced run each. Virtual-time metrics must be identical across
    the repeats. Prints best / median / quartiles per metric and writes
    the result set to ``FILE`` (default ``out/results.json``).

``run.py --compare A.json B.json``
    Two result sets side by side against the bounds in
    ``BENCHMARK.json``; exits non-zero on a breach.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"


def _spec() -> dict:
    return json.loads(SPEC.read_text())


# -- one run -------------------------------------------------------------------------
def run_one(args) -> int:
    """Measure one workload in this process and print its result line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    document, digest, problems = measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    for name, entry in document["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    print(f"v_digest {digest}")
    print(json.dumps(document))
    return 0 if document["correct"] else 1


# -- the suite ------------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    """One run in a fresh child process (task ids, peak RSS and the
    class-level trace wrappers are all per process)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", str(scale),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) failed with {done.returncode}")
    return {
        "workload": workload,
        "trace": trace,
        "digest": lines[-2].split()[-1],
        "result": json.loads(lines[-1]),
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(runs: list[dict], workload: str, trace: int, name: str) -> list[float]:
    return [
        run["result"]["metrics"][name]["value"]
        for run in runs
        if run["workload"] == workload and run["trace"] == trace
    ]


def run_suite(args) -> int:
    """Every workload, ``--repeats`` times untraced and once traced."""
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for repeat in range(args.repeats):
        for workload in workloads:
            print(f"# run {repeat + 1}/{args.repeats} {workload}", flush=True)
            runs.append(_child(workload, args.seed, args.seconds, 0, args.scale))
    for workload in workloads:
        print(f"# traced run {workload}", flush=True)
        runs.append(_child(workload, args.seed, args.seconds, 1, args.scale))

    failures = []
    for workload in workloads:
        print(f"\n== {workload}")
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            values = _values(runs, workload, 0, name)
            q1, median, q3 = _quartiles(values)
            best = max(values) if better == "higher" else min(values)
            print(
                f"{name:<44} best {best:<12.6g} median {median:<12.6g}"
                f" q1 {q1:<12.6g} q3 {q3:<12.6g} {metric['unit']}"
            )
            if name.startswith("v_") and len(set(values)) != 1:
                failures.append(f"{workload}: {name} differs across repeats: {values}")
        digests = {r["digest"] for r in runs if r["workload"] == workload and not r["trace"]}
        print(f"v_digest {sorted(digests)[0]}")
        if len(digests) != 1:
            failures.append(f"{workload}: v_digest differs across repeats")
        for metric in spec["per_layer"]:
            (value,) = _values(runs, workload, 1, metric["name"])
            print(f"{metric['name']:<44} {value:<12.6g} {metric['unit']}")
    out = Path(args.out) if args.out else HERE / "out" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
             "repeats": args.repeats, "claim": None, "runs": runs},
            indent=1,
        )
    )
    print(f"\nwrote {out}")
    for failure in failures:
        print(f"NONDETERMINISM {failure}")
    return 1 if failures else 0


# -- comparing two result sets --------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): each side's best,
    median and quartiles, the bound, and a verdict on the medians."""
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    side_a = json.loads(Path(path_a).read_text())["runs"]
    side_b = json.loads(Path(path_b).read_text())["runs"]
    breaches = 0
    print(
        f"{'workload':<15}{'metric':<20}{'A best':>11}{'A median':>11}{'A q1':>11}"
        f"{'A q3':>11}{'B best':>11}{'B median':>11}{'B q1':>11}{'B q3':>11}"
        f"{'bound':>7}  verdict"
    )
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            cells, medians, spreads = [], [], []
            for side in (side_a, side_b):
                values = _values(side, workload, 0, name)
                q1, median, q3 = _quartiles(values)
                cells += [max(values) if higher else min(values), median, q1, q3]
                medians.append(median)
                spreads.append((q3 - q1) / abs(median) if median else 0.0)
            worse = (medians[0] - medians[1]) if higher else (medians[1] - medians[0])
            worse_by = worse / abs(medians[0]) if medians[0] else 0.0
            if max(spreads) > metric["bound"]:
                verdict = "unresolved (spread exceeds bound)"
            elif worse_by > metric["bound"]:
                verdict = f"BREACH ({worse_by:+.1%})"
                breaches += 1
            else:
                verdict = f"ok ({worse_by:+.1%})"
            print(
                f"{workload:<15}{name:<20}"
                + "".join(f"{cell:>11.5g}" for cell in cells)
                + f"{metric['bound']:>7.2f}  {verdict}"
            )
        digests = [
            {r["digest"] for r in side if r["workload"] == workload and not r["trace"]}
            for side in (side_a, side_b)
        ]
        same = digests[0] == digests[1] and len(digests[0]) == 1
        print(f"{workload:<15}modelled behaviour identical: {'yes' if same else 'no'}")
    print("\nper-layer (traced run, no bound): A | B")
    for workload in workloads:
        for metric in spec["per_layer"]:
            a = _values(side_a, workload, 1, metric["name"])
            b = _values(side_b, workload, 1, metric["name"])
            if a and b:
                print(
                    f"{workload:<15}{metric['name']:<44}{a[0]:>12.6g} |{b[0]:>12.6g}"
                    f" {metric['unit']}"
                )
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and dispatch to one of the three modes."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds to measure (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale every request count (smoke tests)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="where the suite writes its result set")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
