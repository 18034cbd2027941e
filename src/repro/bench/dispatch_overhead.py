"""Wall-clock microbench — dispatch decision cost vs tenant-lane count.

Every other bench in this suite measures *virtual* time; this one
measures the scheduler itself. Each serve-loop iteration asks
:meth:`ServingRuntime._next_window` which coalescing window to dispatch
next. The legacy implementation (retained as
:meth:`ServingRuntime._next_window_scan`) rescans every servable x lane
per call — O(n) per decision, a wall at the ROADMAP's 100k-tenant-lane
target. The event-indexed implementation answers from incrementally
maintained heaps fed by the queue's ready-set listener — O(log n) per
decision.

The experiment populates one servable with ``n`` tenant lanes of
WFQ-tagged requests (all windows due at once — the worst case for
arbitration), then drives steady-state decision cycles: pick the next
window, claim its head (which dirties exactly that topic, as a real
dispatch would), repeat. Both implementations are timed on identically
built populations, and their pick sequences are cross-checked — the
index must not only be faster, it must choose *the same topics in the
same order*.

Reported per arm: wall-clock microseconds per decision and decisions
per second. Acceptance: per-decision cost grows <= 2x from the smallest
to the largest lane count (O(log n) flatness) and the index beats the
scan by >= 10x at 10k lanes.

A third arm prices *request tracing*: full pick -> dispatch -> settle
cycles on a shared-clock worker (serial, always free — so repeated
dispatches never starve for a host), timed with the runtime's tracer
detached vs attached at the production head-sampling rate. Tracing is
deferred recording by design — the dispatch path stashes one tuple of
batch timings and all per-member span recording rides the settlement
pass — so the *scheduling decision* never touches the tracer. The arm
gates on exactly that: per-decision (pick) cost measured amid fully
traced cycles must stay within 5% of tracing-off at 10k lanes; the
whole-cycle overhead (span recording and retention included) is
reported alongside, unbudgeted, at the single-member worst case.
"""

from __future__ import annotations

import gc
import math
import time

from repro.bench.workloads import build_fleet
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest

SERVABLE = "noop"
#: Lane counts the indexed implementation is timed at.
SIZES = (10, 100, 1_000, 10_000, 100_000)
#: Lane counts the reference scan is timed at (quadratic total cost
#: makes 100k scan-arm decisions pointless to sit through).
SCAN_SIZES = (10, 1_000, 10_000)
#: Decision cycles timed per measurement.
DECISIONS = 300
#: Measurements per size; the minimum is reported (standard microbench
#: practice — the floor is the cost, the rest is interference).
REPEATS = 5
#: Lane count at which heap and scan pick sequences are cross-checked.
CHECK_SIZE = 1_000
#: Lane counts for the tracing-overhead arm (full dispatch cycles).
TRACE_SIZES = (1_000, 10_000)
#: Dispatch cycles timed per tracing-arm measurement.
TRACE_CYCLES = 200
#: Head-sampling rate the tracing-on arm runs at (the production
#: default of :class:`repro.core.telemetry.Tracer`).
TRACE_SAMPLE_RATE = 0.01
#: The lane the tracing-on arm's adaptive sampler escalates (lane 0
#: always exists): every sampling decision then runs the per-tenant
#: override branch, pricing the loop as it behaves mid-incident.
TRACE_ESCALATED_TENANT = "t000000"

def _populated_runtime(
    n_lanes: int, depth: int, shared_clock: bool = False, tracer=None
) -> ServingRuntime:
    """One placed servable with ``n_lanes`` tenant lanes, ``depth`` deep.

    Requests carry strictly increasing WFQ dispatch tags assigned
    round-robin across lanes (round ``k``'s tags all precede round
    ``k+1``'s), so the decision order sweeps the lanes the way a fair
    gateway's release order would. ``max_coalesce_delay_s=0`` makes
    every non-empty lane due immediately: all ``n_lanes`` windows
    contend at every decision, the arbitration worst case.

    A ``shared_clock`` worker runs full dispatch cycles back to back
    (processing advances the one timeline and frees the worker at
    once); with a ``tracer``, each request's trace opens here, untimed.
    """
    _, runtime = build_fleet(SERVABLE, 1, 8, 0.0, tracer=tracer, shared_clock=shared_clock)
    tag = 0.0
    for k in range(depth):
        for j in range(n_lanes):
            request = TaskRequest(SERVABLE, args=("x",))
            request.tenant = f"t{j:06d}"
            request.dispatch_tag = tag
            tag += 1.0
            runtime.submit(request)
    return runtime


def _run_decisions(
    runtime: ServingRuntime, decisions: int, use_scan: bool
) -> tuple[list[str], float]:
    """Time ``decisions`` scheduling decisions; returns (picks, seconds).

    Each cycle picks the next window and then claims its head — the
    claim is what a real dispatch does to the queue, and it is the
    event that dirties the topic so the *next* decision exercises the
    index maintenance path rather than a frozen snapshot. Only the
    decision itself is on the clock: the claim runs between timing
    windows, so both arms report the scheduler's cost, not the queue's.
    """
    now = runtime.clock.now()
    fn = runtime._next_window_scan if use_scan else runtime._next_window
    # Unmeasured warm-up: the indexed arm folds the whole initial
    # population into its heaps here (O(n log n), paid once at build —
    # steady state is what the loop below measures).
    runtime._next_window(now)
    picks: list[str] = []
    elapsed = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(decisions):
            start = time.perf_counter()
            topic, _ = fn(now)
            elapsed += time.perf_counter() - start
            if topic is None:
                break
            picks.append(topic)
            runtime.queue.claim(topic)
    finally:
        if gc_was_enabled:
            gc.enable()
    return picks, max(elapsed, 1e-9)


def _measure(
    n_lanes: int, decisions: int, repeats: int, use_scan: bool
) -> dict:
    depth = max(1, math.ceil(decisions / n_lanes))
    best = math.inf
    completed = 0
    for _ in range(repeats):
        runtime = _populated_runtime(n_lanes, depth)
        picks, elapsed = _run_decisions(runtime, decisions, use_scan)
        completed = len(picks)
        best = min(best, elapsed / max(completed, 1))
    return {
        "lanes": n_lanes,
        "decisions": completed,
        "per_decision_us": best * 1e6,
        "decisions_per_sec": 1.0 / best,
    }


def _run_dispatch_cycles(
    runtime: ServingRuntime, cycles: int
) -> tuple[int, float, float]:
    """Time full pick -> dispatch -> settle cycles.

    Returns ``(count, pick_seconds, cycle_seconds)``: the scheduling
    decision is timed on its own *inside* each fully traced cycle, so
    the per-decision comparison sees the dispatch path in its real
    state (claims landing, traces being recorded and retained) rather
    than a frozen snapshot. The shared-clock worker has already
    advanced global time past the batch's completion when dispatch
    returns, so settlement — where all per-member span recording and
    the retention decision land — runs in the same cycle.
    """
    runtime._next_window(runtime.clock.now())  # unmeasured index warm-up
    completed = 0
    pick_elapsed = 0.0
    cycle_elapsed = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(cycles):
            now = runtime.clock.now()
            start = time.perf_counter()
            topic, _ = runtime._next_window(now)
            picked = time.perf_counter()
            pick_elapsed += picked - start
            if topic is None:
                break
            runtime._dispatch_topic(topic)
            runtime._settle(runtime.clock.now())
            cycle_elapsed += time.perf_counter() - start
            completed += 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return completed, max(pick_elapsed, 1e-9), max(cycle_elapsed, 1e-9)


def _measure_tracing(n_lanes: int, cycles: int, repeats: int) -> dict:
    """Pick and cycle cost with the tracer detached vs attached.

    Arms are interleaved within each repeat and the minimum is kept,
    so slow-machine interference hits both arms alike. Each built
    population is timed over several passes (the lanes hold enough
    single-member windows for all of them) — first-pass cache warm-up
    is real but identical in both arms, and the minimum isolates the
    steady state the overhead claim is about.

    Both arms carry the closed observability loop (an
    :class:`~repro.core.obsloop.ObservabilityLoop` scraping the hub
    between passes) — production runs the loop whether or not tracing
    is on, and attaching it asymmetrically would fold its allocator
    side effects into the ratio. The tracing-on arm additionally has
    an :class:`~repro.core.obsloop.AdaptiveSampler` escalation on one
    hot lane installed *before* population (so every sampling decision
    runs the per-tenant override branch, as it would mid-incident).
    The <= 5% gate therefore prices what *tracing* adds to the
    dispatch decision with the whole loop attached.
    """
    from repro.core.obsloop import AdaptiveSampler, ObservabilityLoop
    from repro.core.telemetry import Tracer, build_hub

    passes = max(1, min(6, n_lanes // cycles))
    best = {"off": [math.inf, math.inf], "on": [math.inf, math.inf]}
    kept = traced = loop_scrapes = 0
    escalated_rate = TRACE_SAMPLE_RATE
    for _ in range(repeats):
        for arm in ("off", "on"):
            # Tail-keep is disabled in this arm: the synthetic all-due
            # population makes every request's *virtual* latency huge,
            # so the slow path would retain ~everything and the arm
            # would price an artifact instead of the 1% sampling rate.
            tracer = None
            if arm == "on":
                tracer = Tracer(
                    sample_rate=TRACE_SAMPLE_RATE, slow_threshold_s=None
                )
                # Escalate the hot lane as a firing burn alert would,
                # before population opens any trace: the override's
                # dedicated accumulator is live for the whole arm. The
                # sampler is stepped manually (not by the loop) so the
                # escalation holds instead of decaying scrape-over-
                # scrape — this arm models an incident in progress.
                sampler = AdaptiveSampler(tracer)
                sampler.update(0.0, (TRACE_ESCALATED_TENANT,))
                escalated_rate = tracer.effective_rate(TRACE_ESCALATED_TENANT)
            runtime = _populated_runtime(n_lanes, 1, shared_clock=True, tracer=tracer)
            hub = build_hub(runtime=runtime, tracer=tracer)
            loop = ObservabilityLoop(runtime.clock, hub)
            for _ in range(passes):
                loop.scrape(runtime.clock.now())
                completed, pick_s, cycle_s = _run_dispatch_cycles(
                    runtime, cycles
                )
                if completed == 0:
                    break
                best[arm][0] = min(best[arm][0], pick_s / completed)
                best[arm][1] = min(best[arm][1], cycle_s / completed)
            if tracer is not None:
                stats = tracer.stats()
                kept = stats["kept_sampled"] + stats["kept_tail"]
                traced = stats["started"]
                loop_scrapes = loop.scrapes
    return {
        "lanes": n_lanes,
        "cycles": cycles,
        "passes": passes,
        "sample_rate": TRACE_SAMPLE_RATE,
        "escalated_tenant": TRACE_ESCALATED_TENANT,
        "escalated_rate": escalated_rate,
        "loop_scrapes": loop_scrapes,
        "off_per_decision_us": best["off"][0] * 1e6,
        "on_per_decision_us": best["on"][0] * 1e6,
        "decision_overhead_ratio": best["on"][0] / best["off"][0],
        "off_per_cycle_us": best["off"][1] * 1e6,
        "on_per_cycle_us": best["on"][1] * 1e6,
        "cycle_overhead_ratio": best["on"][1] / best["off"][1],
        "traces_retained": kept,
        "requests_traced": traced,
    }


def _picks_identical(n_lanes: int, decisions: int) -> bool:
    """Cross-check: identical populations, identical pick sequences."""
    depth = max(1, math.ceil(decisions / n_lanes))
    heap_picks, _ = _run_decisions(
        _populated_runtime(n_lanes, depth), decisions, use_scan=False
    )
    scan_picks, _ = _run_decisions(
        _populated_runtime(n_lanes, depth), decisions, use_scan=True
    )
    return heap_picks == scan_picks


def run_experiment(
    sizes: tuple[int, ...] = SIZES,
    scan_sizes: tuple[int, ...] = SCAN_SIZES,
    decisions: int = DECISIONS,
    repeats: int = REPEATS,
    check_size: int = CHECK_SIZE,
    trace_sizes: tuple[int, ...] = TRACE_SIZES,
    trace_cycles: int = TRACE_CYCLES,
) -> dict:
    """Returns ``{"params", "heap", "scan", "tracing", derived...}``."""
    heap_rows = [
        _measure(n, decisions, repeats, use_scan=False) for n in sizes
    ]
    scan_rows = [
        _measure(n, decisions, max(1, repeats - 3), use_scan=True)
        for n in scan_sizes
    ]
    by_lanes_heap = {row["lanes"]: row for row in heap_rows}
    by_lanes_scan = {row["lanes"]: row for row in scan_rows}
    growth = (
        heap_rows[-1]["per_decision_us"] / heap_rows[0]["per_decision_us"]
    )
    speedups = {
        n: by_lanes_scan[n]["per_decision_us"]
        / by_lanes_heap[n]["per_decision_us"]
        for n in scan_sizes
        if n in by_lanes_heap
    }
    return {
        "params": {
            "servable": SERVABLE,
            "sizes": list(sizes),
            "scan_sizes": list(scan_sizes),
            "decisions": decisions,
            "repeats": repeats,
            "check_size": check_size,
            "trace_sizes": list(trace_sizes),
            "trace_cycles": trace_cycles,
            "trace_sample_rate": TRACE_SAMPLE_RATE,
        },
        "heap": heap_rows,
        "scan": scan_rows,
        "tracing": [
            _measure_tracing(n, trace_cycles, max(1, repeats - 2))
            for n in trace_sizes
        ],
        "per_decision_growth": growth,
        "speedup_by_lanes": {str(n): s for n, s in speedups.items()},
        "picks_identical": _picks_identical(check_size, decisions),
    }
