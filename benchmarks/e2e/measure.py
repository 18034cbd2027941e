"""One benchmark run: rounds, the correctness gate, and the metrics.

A run is a sequence of *rounds*. Each round builds a fresh stack from a
sub-seed of the run's seed, serves its whole schedule once, and checks
every outcome. The first :data:`POOLED_ROUNDS` rounds use distinct
sub-seeds and are pooled into the virtual-time metrics, which therefore
repeat bit for bit for a given seed however fast the host is; further
rounds (run until ``--seconds`` have passed) replay those sub-seeds,
must reproduce their digests exactly, and only add wall-clock samples.
Wall metrics are medians over all rounds.

**Wall time is reported at a reference speed.** This sandbox's cores
speed up and slow down by 2-3x for seconds to minutes at a time (CPU
time moves with wall time, so it is contention, not preemption), which
put the run-to-run spread of raw throughput at 20-40%. A fixed
pure-Python kernel (:func:`calibrate`) therefore runs at both ends of
every timed section and, on a wall-clock timer, every 0.1 s inside it
(:class:`ReferenceSpeed`); the section's own time is scaled by the mean
of ``CALIBRATION_REFERENCE_S / kernel time``. The kernel shares no code
with the program, so a faster program still reads faster. The raw
figure is kept as ``host.raw_wall_rps``.

A traced run alternates untraced and traced rounds of the same
sub-seed; per-layer metrics are pooled over the first
:data:`POOLED_TRACED_ROUNDS` traced rounds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import pickle
import resource
import signal
import statistics
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from outside_trace import LAYERS, OutsideTracer
from workloads import (
    LADDER_RPS,
    RESTART_COST_S,
    SLO_LIMIT_S,
    WORKLOADS,
    Stack,
    ladder_rung,
)

from repro.core.runtime import ServingRuntime
from repro.core.zoo import build_zoo
from repro.durability.store import InMemoryDurableStore
from repro.gateway.admission import AdmissionOutcome
from repro.gateway.gateway import ServingGateway

POOLED_ROUNDS = 4
POOLED_TRACED_ROUNDS = 2
#: What :func:`calibrate` takes on an idle core of the box this was
#: written on. Only a unit: it makes scaled times read as seconds there.
CALIBRATION_REFERENCE_S = 0.006
#: How often the kernel samples the host's speed inside a timed section.
SAMPLE_INTERVAL_S = 0.1
OUT_DIR = Path(__file__).resolve().parent / "out"

#: name -> (unit, better). What a user of the serving system — or of
#: the simulator — sees. ``v_`` metrics are virtual time: what the
#: modelled DLHub would take. The rest is what our Python costs.
END_TO_END = {
    "wall_rps": ("req/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "v_latency_p50_ms": ("ms", "lower"),
    "v_latency_p95_ms": ("ms", "lower"),
    "v_slo_attainment": ("share", "higher"),
    "v_goodput_rps": ("req/s", "higher"),
}

#: name -> (unit, better) for everything beyond the two per layer.
_LAYER_EXTRAS = {
    "gateway.admission.denied_share": ("share", "lower"),
    "gateway.gateway.v_lane_wait_p50_ms": ("ms", "lower"),
    "gateway.gateway.v_lane_wait_p999_ms": ("ms", "lower"),
    "gateway.gateway.v_offer_lateness_p999_ms": ("ms", "lower"),
    "messaging.queue.redelivered_per_req": ("1/req", "lower"),
    "durability.journal.records_per_req": ("records/req", "lower"),
    "durability.journal.snapshots_per_kreq": ("1/kreq", "lower"),
    "durability.journal.snapshot_us_per_req": ("us/req", "lower"),
    "durability.journal.encode_body_us_per_req": ("us/req", "lower"),
    "durability.store.bytes_per_req": ("B/req", "lower"),
    "durability.recovery.records_replayed": ("count", "lower"),
    "durability.recovery.restored_open": ("count", "lower"),
    "durability.recovery.us_per_restored": ("us", "lower"),
    "durability.recovery.wall_ms": ("ms", "lower"),
    "durability.recovery.post_rate_ratio": ("ratio", "higher"),
    "core.runtime.mean_batch_size": ("req/batch", "higher"),
    "core.runtime.batches_per_req": ("1/req", "lower"),
    "core.runtime.lanes_collected": ("count", "higher"),
    "core.runtime.v_queue_wait_p50_ms": ("ms", "lower"),
    "core.runtime.v_coalesce_delay_p50_ms": ("ms", "lower"),
    "core.runtime.v_dispatch_p50_ms": ("ms", "lower"),
    "core.runtime.v_inference_p50_ms": ("ms", "lower"),
    "core.memo.hit_ratio": ("ratio", "higher"),
    "core.fleet.reconciles": ("count", "lower"),
    "core.fleet.reconcile_us": ("us", "lower"),
    "core.fleet.peak_workers": ("count", "lower"),
    "core.obsloop.scrapes": ("count", "lower"),
    "core.obsloop.scrape_us": ("us", "lower"),
    "core.obsloop.alerts_fired": ("count", "lower"),
    "core.telemetry.traces_retained": ("count", "lower"),
    "core.telemetry.settle_us_per_req": ("us/req", "lower"),
    "sim.clock.advances_per_req": ("1/req", "lower"),
    "sim.clock.host_us_per_advance": ("us", "lower"),
    "ladder.v_max_rate_rps": ("req/s", "higher"),
    "host.raw_wall_rps": ("req/s", "higher"),
    "host.calibration_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
PER_LAYER = {
    **{
        f"{layer}.{suffix}": (unit, "lower")
        for layer in LAYERS
        for suffix, unit in (("calls_per_req", "1/req"), ("self_us_per_req", "us/req"))
    },
    **_LAYER_EXTRAS,
}


# -- the reference speed --------------------------------------------------------------
class _Cell:
    __slots__ = ("count", "key")

    def __init__(self, count: int, key: str) -> None:
        self.count = count
        self.key = key


def _bump(cell: _Cell, by: int) -> int:
    cell.count += by
    return cell.count & 7


def calibrate() -> float:
    """Wall seconds a fixed kernel takes right now (~6 ms when idle).

    The mix is the interpreter work a discrete-event simulator does —
    small objects, dict and heap traffic, short calls, string keys, and
    a little pickling and compression — and none of the program's own
    code.
    """
    started = perf_counter()
    table: dict[str, _Cell] = {}
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(3_200):
        key = f"k{i % 1024}"
        cell = _Cell(i, key)
        table[key] = cell
        total += _bump(table.get(f"k{(i * 7) % 1024}", cell), i)
        heapq.heappush(heap, (total % 1013, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 64 == 0:
            total += len(zlib.compress(pickle.dumps((key, heap))))
    return perf_counter() - started


class ReferenceSpeed:
    """Times a block of host work and scales it to the reference speed.

    The kernel runs on entry, on exit and — with ``inside`` — every
    :data:`SAMPLE_INTERVAL_S` of wall time in between, from a
    ``SIGALRM`` handler (so: main thread only). The block's own time
    ``raw_s`` is its wall time minus the kernel time spent inside it.
    Samples are uniform in wall time, so the mean of the *rates*
    ``reference / kernel time`` is the share of reference-speed work the
    host delivered per wall second; ``seconds`` is ``raw_s`` times that.
    A traced block samples only at its ends: a handler running inside a
    span would be charged to that span.
    """

    def __init__(self, inside: bool = True) -> None:
        self.inside = inside
        self.kernel_s: list[float] = []
        self.raw_s = self.seconds = 0.0

    def _sample(self, *_signal_args) -> None:
        self.kernel_s.append(calibrate())

    def __enter__(self) -> "ReferenceSpeed":
        self._sample()
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall_s = perf_counter() - self._started
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = wall_s - sum(self.kernel_s[1:])
        self._sample()
        rates = [CALIBRATION_REFERENCE_S / kernel for kernel in self.kernel_s]
        self.seconds = self.raw_s * statistics.fmean(rates)


# -- one round -----------------------------------------------------------------------
@dataclass
class Round:
    """One served schedule, reduced to what the metrics need."""

    offered: int
    #: Wall seconds at the reference speed.
    setup_s: float
    wall_s: float
    #: Wall seconds of the serve call as the host's clock read them.
    raw_wall_s: float
    calibration_s: float
    #: Latency (virtual s, due -> settle) of every OK request.
    latencies: list[float]
    denied: int
    failed: int
    makespan_s: float
    digest: str
    problems: list[str]
    #: Additive per-layer quantities and pooled samples (traced rounds).
    sums: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=lambda: defaultdict(list))


def _outcome(result) -> tuple[str, float | None]:
    """``(label, settle time)`` of one offer's result; the label is
    ``ok``, ``failed``, a typed denial, or what went missing."""
    if result is None:
        return "lost", None
    if not result.admitted:
        outcome = result.decision.outcome
        typed = isinstance(outcome, AdmissionOutcome)
        return (outcome.value if typed else f"untyped:{outcome!r}"), None
    if not result.completed:
        return "unsettled", None
    return ("ok" if result.ok else "failed"), result.runtime_result.completed_at


@dataclass
class Checked:
    """What the correctness gate found in one round's outcomes."""

    #: task_uuid -> GatewayResult
    results: dict
    ok: list
    denied: int
    digest: str
    problems: list[str]


def check_round(stack: Stack, outcomes: list, oracle) -> Checked:
    """The correctness gate over everything ``stack.serve`` returned.

    Every offer has exactly one typed outcome, nothing settled that was
    not offered, every admitted request settled (exactly once through
    crashes), and every served value equals what the servable returns
    when run directly. A typed admission denial is the system's correct
    answer to a tenant over its limit — a refusal, counted against
    ``v_slo_attainment``, not a failure. The digest hashes request
    index, outcome and settle time.
    """
    results = {outcome.request.task_uuid: outcome for outcome in outcomes}
    checked = Checked(results, [], 0, "", [])
    problems = checked.problems
    uuids = {request.task_uuid for request in stack.requests}
    if len(results) != len(outcomes) or not uuids.issuperset(results):
        problems.append("outcomes do not map one-to-one onto offered requests")
    sha = hashlib.sha256()
    denials = {outcome.value for outcome in AdmissionOutcome}
    for index, (offer, request) in enumerate(zip(stack.offers, stack.requests)):
        result = results.get(request.task_uuid)
        label, settled = _outcome(result)
        sha.update(f"{index} {label} {settled!r}\n".encode())
        if label == "ok":
            checked.ok.append(result)
            value = result.runtime_result.result.value
            if value != oracle(offer.servable, offer.args):
                problems.append(f"offer {index}: served {value!r}, oracle disagrees")
        elif label in denials:
            checked.denied += 1
        else:
            problems.append(f"offer {index}: {label}")
    for outcome in stack.chaos:
        if not outcome.exactly_once:
            problems.append(
                f"not exactly once: {len(outcome.duplicates)} duplicates, "
                f"{len(outcome.admitted - set(outcome.settled))} admitted but unsettled"
            )
    checked.digest = sha.hexdigest()
    return checked


def run_round(
    workload: str,
    seed: int,
    scale: float,
    zoo,
    oracle,
    untraced_twin: Round | None = None,
    trace_path: Path | None = None,
) -> Round:
    """Build, serve (the one timed call) and check one schedule.

    With ``untraced_twin`` — the same schedule already served untraced —
    the serve runs under :class:`OutsideTracer` and the round carries the
    per-layer quantities; ``trace_path`` also dumps the spans.
    """
    gc.collect()
    with ReferenceSpeed() as setup:
        stack = WORKLOADS[workload].build(seed, scale, zoo)
    book = _TraceBook()
    tracer = OutsideTracer(book.hooks())
    with tracer if untraced_twin is not None else contextlib.nullcontext():
        with ReferenceSpeed(inside=untraced_twin is None) as serve:
            outcomes = stack.serve()
    checked = check_round(stack, outcomes, oracle)
    ok = checked.ok
    due = [result.arrived_at for result in outcomes]
    done = [result.runtime_result.completed_at for result in ok]
    rnd = Round(
        offered=len(stack.offers),
        setup_s=setup.seconds,
        wall_s=serve.seconds,
        raw_wall_s=serve.raw_s,
        calibration_s=statistics.median(serve.kernel_s),
        latencies=[result.latency for result in ok],
        denied=checked.denied,
        failed=len(stack.offers) - len(ok) - checked.denied,
        makespan_s=max(done) - min(due) if done else 0.0,
        digest=checked.digest,
        problems=checked.problems,
    )
    if untraced_twin is not None:
        speed = serve.seconds / serve.raw_s
        _layer_quantities(
            rnd, workload, stack, checked.results, ok, tracer, book, scale, speed
        )
        rnd.sums["untraced_wall_s"] = untraced_twin.wall_s
        if trace_path is not None:
            header = {
                "workload": workload,
                "seed": seed,
                "scale": scale,
                "requests": rnd.offered,
                "serve_wall_s": serve.raw_s,
            }
            tracer.write(trace_path, header)
    return rnd


# -- per-layer quantities -------------------------------------------------------------
class _TraceBook:
    """What the wrapper hooks note down while a traced round serves."""

    def __init__(self) -> None:
        self.store_bytes = 0
        self.offer_lateness: list[float] = []
        #: Every runtime that served (a crash-restart builds a new one).
        self.runtimes: dict[int, ServingRuntime] = {}

    def hooks(self) -> dict:
        def on_store_append(args, kwargs, result):
            self.store_bytes += len(args[2])

        def on_offer(args, kwargs, result):
            if result is not None:  # None: a simulated crash cut the offer short
                self.offer_lateness.append(
                    args[0].runtime.clock.now() - result.arrived_at
                )

        def on_runtime_serve(args, kwargs, result):
            self.runtimes[id(args[0])] = args[0]

        return {
            (InMemoryDurableStore, "append"): on_store_append,
            (ServingGateway, "offer"): on_offer,
            (ServingRuntime, "serve"): on_runtime_serve,
        }


def _layer_quantities(
    rnd: Round,
    workload: str,
    stack: Stack,
    results: dict,
    ok: list,
    tracer: OutsideTracer,
    book: _TraceBook,
    scale: float,
    speed: float,
) -> None:
    """Fill ``rnd.sums`` / ``rnd.samples`` from the trace, the hooks and
    the stack's public attributes. Everything here is additive across
    rounds, so pooling is a sum. ``speed`` scales span times to the
    reference speed, as for the end-to-end wall metrics."""
    sums, samples = rnd.sums, rnd.samples

    def scaled_ns(layer: str, *labels: str) -> float:
        return tracer.inclusive_ns(layer, *labels) * speed

    for layer in LAYERS:
        sums[f"{layer}.calls"] = tracer.layer_calls(layer)
        sums[f"{layer}.self_ns"] = tracer.layer_self_ns(layer) * speed
    sums["snapshots"] = tracer.calls("durability.journal", "Journal.snapshot_now")
    sums["snapshot_ns"] = scaled_ns("durability.journal", "Journal.snapshot_now")
    sums["records"] = tracer.calls("durability.journal", "Journal.append")
    sums["encode_body_ns"] = scaled_ns("durability.journal", "Journal.encode_body")
    sums["store_bytes"] = book.store_bytes
    sums["recovery_ns"] = scaled_ns(
        "durability.recovery",
        "chaos.begin_recovery",
        "chaos.materialize_queue",
        "chaos.gateway_restore_entries",
    ) + scaled_ns("gateway.gateway", "ServingGateway.restore_open")
    sums["reconciles"] = tracer.calls("core.fleet", "FleetController.reconcile")
    sums["reconcile_ns"] = scaled_ns("core.fleet", "FleetController.reconcile")
    sums["scrapes"] = tracer.calls("core.obsloop", "ObservabilityLoop.scrape")
    sums["scrape_ns"] = scaled_ns("core.obsloop", "ObservabilityLoop.scrape")
    sums["trace_settle_ns"] = scaled_ns(
        "core.telemetry", "Tracer.settle_request", "Tracer.settle_member"
    )
    sums["redelivered"] = stack.queue().total_redelivered
    sums["batches"] = sum(1.0 / r.runtime_result.batch_size for r in ok)
    sums["memo_hits"] = sum(w.cache.hits for w in stack.workers)
    sums["memo_lookups"] = sum(w.cache.hits + w.cache.misses for w in stack.workers)
    for runtime in book.runtimes.values():
        sums["lanes_collected"] += runtime.lanes_collected
        for stage in ("queue_wait", "coalesce_delay", "dispatch", "inference"):
            samples[stage].extend(runtime.stage_metrics.samples(stage))
    samples["lane_wait"] = [r.latency - r.runtime_result.latency for r in ok]
    samples["offer_lateness"] = book.offer_lateness
    sums["peak_workers"] = len(stack.workers)
    if stack.controller is not None:
        sums["peak_workers"] = stack.controller.peak_routable_workers
        sums["alerts_fired"] = sum(
            1
            for transition in stack.controller.alert_engine.transitions
            if transition.state == "firing"
        )
        sums["traces_retained"] = len(stack.controller.runtime.tracer.retained)
    for outcome in stack.chaos:
        # Settle rate in the half second (x scale) after each recovery
        # over the rate in the half second before its crash.
        settles = np.sort([r.runtime_result.completed_at for r in ok])
        window = 0.5 * scale
        for crash, recovery in zip(outcome.crashes, outcome.recoveries):
            sums["records_replayed"] += recovery["records_replayed"]
            sums["restored_open"] += recovery["restored_open"]
            back = crash.at + RESTART_COST_S
            before = np.searchsorted(settles, [crash.at - window, crash.at])
            after = np.searchsorted(settles, [back, back + window])
            if before[1] > before[0]:
                samples["post_rate_ratio"].append(
                    float(after[1] - after[0]) / float(before[1] - before[0])
                )
    if workload == "max_rate":
        samples["max_rate"].append(_ladder_knee(stack, results, scale))


def _ladder_knee(stack: Stack, results: dict, scale: float) -> float:
    """Highest rate of the staircase's passing prefix: every rung up to
    it served all its requests with p99 inside the latency limit."""
    by_rung: dict[int, list[float]] = defaultdict(list)
    for offer, request in zip(stack.offers, stack.requests):
        result = results.get(request.task_uuid)
        by_rung[ladder_rung(offer.offset_s, scale)].append(
            result.latency if result is not None and result.ok else np.inf
        )
    knee = 0.0
    for rung, rate in enumerate(LADDER_RPS):
        if not by_rung[rung] or np.percentile(by_rung[rung], 99) > SLO_LIMIT_S:
            break
        knee = rate
    return knee


# -- pooling and metrics --------------------------------------------------------------
def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3 if len(values) else 0.0


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def end_to_end_metrics(rounds: list[Round]) -> dict[str, float]:
    """Medians of the wall-clock quantities over all rounds; virtual-time
    metrics pooled over the first :data:`POOLED_ROUNDS`."""
    pooled = rounds[:POOLED_ROUNDS]
    latencies = np.concatenate([np.asarray(r.latencies) for r in pooled])
    offered = sum(r.offered for r in pooled)
    return {
        "wall_rps": statistics.median(r.offered / r.wall_s for r in rounds),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "v_latency_p50_ms": _percentile_ms(latencies, 50),
        "v_latency_p95_ms": _percentile_ms(latencies, 95),
        "v_slo_attainment": float(np.sum(latencies <= SLO_LIMIT_S)) / offered,
        "v_goodput_rps": len(latencies) / sum(r.makespan_s for r in pooled),
    }


def per_layer_metrics(traced: list[Round], plain: list[Round]) -> dict[str, float]:
    """Per-layer metrics pooled over the first
    :data:`POOLED_TRACED_ROUNDS` traced rounds; their untraced twins
    ``plain`` feed the ``host.*`` and ``trace.*`` figures."""
    pooled = traced[:POOLED_TRACED_ROUNDS]
    sums: Counter = Counter()
    samples: dict[str, list] = defaultdict(list)
    for rnd in pooled:
        sums.update(rnd.sums)
        for name, values in rnd.samples.items():
            samples[name].extend(values)
    requests = sum(r.offered for r in pooled)
    denied = sum(r.denied for r in pooled)
    rounds = len(pooled)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_req"] = sums[f"{layer}.calls"] / requests
        metrics[f"{layer}.self_us_per_req"] = sums[f"{layer}.self_ns"] / 1e3 / requests
    advances = sums["sim.clock.calls"]
    extras = {
        "gateway.admission.denied_share": denied / requests,
        "gateway.gateway.v_lane_wait_p50_ms": _percentile_ms(samples["lane_wait"], 50),
        "gateway.gateway.v_lane_wait_p999_ms": _percentile_ms(samples["lane_wait"], 99.9),
        "gateway.gateway.v_offer_lateness_p999_ms": _percentile_ms(
            samples["offer_lateness"], 99.9
        ),
        "messaging.queue.redelivered_per_req": sums["redelivered"] / requests,
        "durability.journal.records_per_req": sums["records"] / requests,
        "durability.journal.snapshots_per_kreq": 1e3 * sums["snapshots"] / requests,
        "durability.journal.snapshot_us_per_req": sums["snapshot_ns"] / 1e3 / requests,
        "durability.journal.encode_body_us_per_req": sums["encode_body_ns"]
        / 1e3
        / requests,
        "durability.store.bytes_per_req": sums["store_bytes"] / requests,
        "durability.recovery.records_replayed": sums["records_replayed"] / rounds,
        "durability.recovery.restored_open": sums["restored_open"] / rounds,
        "durability.recovery.us_per_restored": _per(
            sums["recovery_ns"] / 1e3, sums["restored_open"]
        ),
        "durability.recovery.wall_ms": sums["recovery_ns"] / 1e6 / rounds,
        "durability.recovery.post_rate_ratio": _per(
            sum(samples["post_rate_ratio"]), len(samples["post_rate_ratio"])
        ),
        "core.runtime.mean_batch_size": _per(requests - denied, sums["batches"]),
        "core.runtime.batches_per_req": sums["batches"] / requests,
        "core.runtime.lanes_collected": sums["lanes_collected"] / rounds,
        "core.runtime.v_queue_wait_p50_ms": _percentile_ms(samples["queue_wait"], 50),
        "core.runtime.v_coalesce_delay_p50_ms": _percentile_ms(
            samples["coalesce_delay"], 50
        ),
        "core.runtime.v_dispatch_p50_ms": _percentile_ms(samples["dispatch"], 50),
        "core.runtime.v_inference_p50_ms": _percentile_ms(samples["inference"], 50),
        "core.memo.hit_ratio": _per(sums["memo_hits"], sums["memo_lookups"]),
        "core.fleet.reconciles": sums["reconciles"] / rounds,
        "core.fleet.reconcile_us": _per(sums["reconcile_ns"] / 1e3, sums["reconciles"]),
        "core.fleet.peak_workers": sums["peak_workers"] / rounds,
        "core.obsloop.scrapes": sums["scrapes"] / rounds,
        "core.obsloop.scrape_us": _per(sums["scrape_ns"] / 1e3, sums["scrapes"]),
        "core.obsloop.alerts_fired": sums["alerts_fired"] / rounds,
        "core.telemetry.traces_retained": sums["traces_retained"] / rounds,
        "core.telemetry.settle_us_per_req": sums["trace_settle_ns"] / 1e3 / requests,
        "sim.clock.advances_per_req": advances / requests,
        # Host time per simulated event, from the untraced twin of each
        # traced round (the count is exact either way).
        "sim.clock.host_us_per_advance": _per(sums["untraced_wall_s"] * 1e6, advances),
        "ladder.v_max_rate_rps": _per(sum(samples["max_rate"]), len(samples["max_rate"])),
        "host.raw_wall_rps": statistics.median(r.offered / r.raw_wall_s for r in plain),
        "host.calibration_ms": 1e3 * statistics.median(r.calibration_s for r in plain),
        "trace.overhead_ratio": statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in plain),
    }
    return {**metrics, **extras}


# -- one run -------------------------------------------------------------------------
def run(
    workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> tuple[dict, str, list[str]]:
    """Measure ``workload`` for about ``seconds`` of wall time.

    Returns the result document (``correct`` / ``attempted`` / ``failed``
    / ``metrics``), ``v_digest`` — the hash of every pooled round's
    outcomes: two commits whose digests match modelled the same system —
    and the correctness problems found (empty when ``correct``).
    """
    zoo = build_zoo(seed=0, oqmd_entries=50, n_estimators=4)
    expected: dict = {}

    def oracle(servable: str, args: tuple):
        if (servable, args) not in expected:
            expected[servable, args] = zoo[servable].run(*args)
        return expected[servable, args]

    pooled = POOLED_TRACED_ROUNDS if trace else POOLED_ROUNDS
    plain: list[Round] = []
    traced: list[Round] = []
    digests: dict[int, str] = {}
    problems: list[str] = []
    started = perf_counter()
    turn = 0
    while turn < pooled or perf_counter() - started < seconds:
        sub_seed = seed * POOLED_ROUNDS + turn % pooled
        fresh = [run_round(workload, sub_seed, scale, zoo, oracle)]
        plain += fresh
        if trace:
            path = OUT_DIR / f"trace_{workload}.json" if turn == 0 else None
            fresh.append(
                run_round(workload, sub_seed, scale, zoo, oracle, fresh[0], path)
            )
            traced.append(fresh[1])
        for rnd in fresh:
            problems += rnd.problems
            if digests.setdefault(sub_seed, rnd.digest) != rnd.digest:
                problems.append(f"seed {sub_seed} was served differently on a repeat")
        turn += 1
    metrics = per_layer_metrics(traced, plain) if trace else end_to_end_metrics(plain)
    units = PER_LAYER if trace else END_TO_END
    document = {
        "correct": not problems,
        "attempted": sum(r.offered for r in plain + traced),
        "failed": sum(r.failed for r in plain + traced),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name][0]}
            for name in units
        },
    }
    digest = hashlib.sha256("".join(digests[s] for s in sorted(digests)).encode())
    return document, digest.hexdigest(), problems
