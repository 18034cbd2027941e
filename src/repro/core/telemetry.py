"""Request tracing, a unified telemetry hub, and SLO burn-rate monitoring.

Three observability primitives the serving stack composes:

* :class:`Tracer` — per-request span trees on the virtual clock. The
  door head-samples a deterministic 1-in-N subset of requests and
  records nothing else while they wait; settlement keeps the sampled
  ones plus errored and slow outliers (tail-keep, so the interesting
  traces survive even at 1% sampling) and builds a :class:`Trace` for
  those alone. Every stage (admission, WFQ lane wait, dispatch-window
  wait, coalescing, dispatch, inference or memo hit, settlement) is a
  *complete* span built from times the stack already keeps. Kept
  traces export to the Chrome trace-event format (``chrome://tracing``
  / Perfetto waterfalls).
* :class:`TelemetryHub` — a pull-only registry of named sources over
  the collectors that own the numbers
  (:class:`~repro.core.metrics.StageLatencyCollector`,
  :class:`~repro.core.metrics.TenantUsageCollector`, pod-busy gauges,
  WFQ lanes, fleet-event and breach counts), with a JSON snapshot
  export. Sources are bound by duck type, so this module imports none
  of them.
* :class:`SLOBurnMonitor` — windowed per-tenant burn rate of a latency
  SLO (bad fraction over the window divided by the error budget), its
  window a query over a :class:`~repro.core.metrics.SeriesStore`. The
  gateway feeds it settlements; the fleet controller drains breaches
  into ``slo_burn`` :class:`~repro.core.fleet.FleetEvent` entries.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.metrics import SeriesStore

__all__ = [
    "BatchTiming",
    "MemberRecord",
    "SLOBreach",
    "SLOBurnMonitor",
    "Span",
    "TelemetryError",
    "TelemetryHub",
    "Trace",
    "Tracer",
    "build_hub",
]


class TelemetryError(ValueError):
    """Raised on invalid telemetry configuration."""


# ---------------------------------------------------------------------------
# Spans and traces
# ---------------------------------------------------------------------------
#: Stage spans every settled request must carry (``inference`` is
#: replaced by ``cache`` for memo hits); gateway-admitted requests
#: additionally carry ``admission`` and ``lane_wait``.
_RUNTIME_REQUIRED = frozenset({"dispatch_window", "coalesce", "dispatch", "settle"})
_GATEWAY_REQUIRED = frozenset({"admission", "lane_wait"})


class MemberRecord(NamedTuple):
    """One batch member's whole runtime path, as its batch's settlement
    measured it: a single compact entry in a kept trace's raw span list
    that :attr:`Trace.spans` expands into the five canonical stage
    spans. ``dispatch_window`` is exactly the member's queue-wait
    sample, ``coalesce`` the batch's window hold (one per-batch quantity,
    deduplicable by its ``batch`` attr), ``dispatch`` the pre-inference
    overhead, ``inference`` the member's share (a memo hit gets a
    zero-width ``cache`` span; a failed chunk an error-status one) and
    ``settle`` the gap between the worker finishing and the serve loop
    noticing."""

    enqueued_at: float
    claimed_at: float
    head_enqueued: float
    dispatch_start: float
    infer_start: float
    infer_end: float
    completed_at: float
    settle_end: float
    seq: int
    batch_size: int
    worker: str | None
    pod: str | None
    batch_inference_s: float
    status: str
    error: str | None
    cache: bool


class BatchTiming(NamedTuple):
    """What the members of one traced batch share, stashed once at its
    dispatch; a kept member's :class:`MemberRecord` is built from it at
    settlement (:meth:`member`), a dropped member's never is."""

    seq: int
    claimed_at: float
    head_enqueued: float
    dispatch_start: float
    infer_start: float
    completed_at: float
    batch_inference_s: float
    #: Member index -> pod when the batch ran as several chunks, else
    #: ``None`` and :attr:`pod` ran all of it.
    pods: dict | None
    pod: str | None

    def member(self, record, index: int, settle_end: float, error: bool) -> MemberRecord:
        """The :class:`MemberRecord` of ``record``, the batch's
        ``index``-th member (a :class:`~repro.core.record.RequestRecord`
        its dispatch wrote the outcome into)."""
        return MemberRecord(
            record.enqueued_at,
            self.claimed_at,
            self.head_enqueued,
            self.dispatch_start,
            self.infer_start,
            self.infer_start + record.inference_time,
            self.completed_at,
            settle_end,
            self.seq,
            record.batch_size,
            record.worker,
            self.pod if self.pods is None else self.pods.get(index),
            self.batch_inference_s,
            "error" if error else "ok",
            record.error,
            record.cache_hit,
        )


@dataclass
class Span:
    """One timed stage of a request, complete at record time."""

    name: str
    start: float
    end: float
    status: str = "ok"
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        """Span length in virtual seconds."""
        return self.end - self.start


class Trace:
    """The span tree of one kept request: a root covering its whole life,
    from its arrival to its settlement, with the stage spans as children.

    :meth:`Tracer.settle_request` builds one, complete, for each request
    it keeps and for no other. The tree is one level deep by
    construction — every stage span is a child of the request root —
    which makes *well-nested* checkable as plain containment (see
    :meth:`well_formed`). Point annotations (reclaims, dead-letter
    drops) land as instant marks rather than spans.
    """

    __slots__ = (
        "trace_id",
        "name",
        "tenant",
        "start",
        "end",
        "sampled",
        "error",
        "attrs",
        "marks",
        "_raw",
        "_spans",
    )

    def __init__(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        sampled: bool,
        error: bool = False,
        tenant: str | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.name = name
        self.tenant = tenant
        self.start = start
        self.end = end
        self.sampled = sampled
        self.error = error
        self.attrs = attrs
        self.marks: list[tuple[str, float, dict | None]] = []
        #: Spans as raw tuples and member records; :class:`Span` objects
        #: are materialized only when someone reads :attr:`spans`.
        self._raw: list[tuple[str, float, float, str, dict | None] | MemberRecord] = []
        self._spans: list[Span] | None = None

    @property
    def spans(self) -> list[Span]:
        """Recorded stage spans, materialized on first access."""
        if self._spans is None:
            spans: list[Span] = []
            for raw in self._raw:
                if type(raw) is MemberRecord:
                    spans.extend(self._expand_member(raw))
                else:
                    spans.append(Span(*raw))
            self._spans = spans
        return self._spans

    @staticmethod
    def _expand_member(m: MemberRecord) -> list[Span]:
        """A compact member record -> its five canonical stage spans."""
        spans = [
            Span("dispatch_window", m.enqueued_at, m.claimed_at),
            # The batch's window opened when its *head* enqueued, which
            # for a non-head member predates this request entirely;
            # clamp the span to the member's own life (keeping the tree
            # well-nested) and carry the full window in ``window_s``.
            Span(
                "coalesce",
                max(m.head_enqueued, m.enqueued_at),
                m.claimed_at,
                attrs={
                    "batch": m.seq,
                    "batch_size": m.batch_size,
                    "window_s": m.claimed_at - m.head_enqueued,
                },
            ),
            Span(
                "dispatch",
                m.dispatch_start,
                m.infer_start,
                attrs={"batch": m.seq, "worker": m.worker},
            ),
        ]
        if m.cache:
            spans.append(
                Span("cache", m.infer_start, m.infer_start, attrs={"batch": m.seq})
            )
        elif m.status == "ok":
            spans.append(
                Span(
                    "inference",
                    m.infer_start,
                    m.infer_end,
                    attrs={
                        "batch": m.seq,
                        "pod": m.pod,
                        "batch_inference_s": m.batch_inference_s,
                    },
                )
            )
        else:
            spans.append(
                Span(
                    "inference",
                    m.infer_start,
                    m.infer_end,
                    status="error",
                    attrs={"batch": m.seq, "pod": m.pod, "error": m.error},
                )
            )
        spans.append(Span("settle", m.completed_at, m.settle_end))
        return spans

    def span(
        self,
        name: str,
        start: float,
        end: float,
        status: str = "ok",
        **attrs,
    ) -> None:
        """Record one complete stage span."""
        self._raw.append((name, start, end, status, attrs or None))
        self._spans = None

    def mark(self, name: str, at: float, **attrs) -> None:
        """Record a point annotation (reclaim, dead-letter)."""
        self.marks.append((name, at, attrs or None))

    @property
    def duration(self) -> float:
        """Root-span length in virtual seconds."""
        return self.end - self.start

    def stage_names(self) -> set[str]:
        """Distinct stage-span names recorded so far."""
        return {span.name for span in self.spans}

    def stages(self, name: str) -> list[Span]:
        """All spans of one stage, in record order."""
        return [span for span in self.spans if span.name == name]

    def missing_stages(self, gateway: bool = False) -> set[str]:
        """Stage names a settled request should have but doesn't.

        ``inference`` and ``cache`` satisfy each other (memo hits never
        run inference); gateway-admitted requests additionally require
        ``admission`` and ``lane_wait``.
        """
        have = self.stage_names()
        required = set(_RUNTIME_REQUIRED)
        if gateway:
            required |= _GATEWAY_REQUIRED
        missing = required - have
        if not ({"inference", "cache"} & have):
            missing.add("inference")
        return missing

    def well_formed(self, tol: float = 1e-9) -> bool:
        """Every child span inside the root's bounds."""
        for span in self.spans:
            if span.end < span.start - tol:
                return False
            if span.start < self.start - tol or span.end > self.end + tol:
                return False
        return True

    def tree(self) -> dict:
        """The span tree as plain JSON-able data (root + children)."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "tenant": self.tenant,
            "start": self.start,
            "end": self.end,
            "error": self.error,
            "sampled": self.sampled,
            "attrs": self.attrs or {},
            "children": [
                {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "status": span.status,
                    "attrs": span.attrs or {},
                }
                for span in sorted(self.spans, key=lambda s: (s.start, s.end))
            ],
            "marks": [
                {"name": name, "at": at, "attrs": attrs or {}}
                for name, at, attrs in self.marks
            ],
        }


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
#: Bound on :attr:`Tracer.retained`; the oldest kept trace is evicted first.
MAX_RETAINED = 4096


class Tracer:
    """Samples requests, keeps the interesting ones, and builds their traces.

    Head sampling is deterministic (an error-diffusion accumulator
    keeps exactly ``sample_rate`` of begins, evenly spaced — no RNG, so
    runs replay bit-for-bit on the virtual clock). The door only
    samples (:meth:`begin`); nothing is recorded while a request waits.
    Its settlement — by its batch, a denial or a dead letter — decides
    retention from scalars (:meth:`settle_request`): kept when
    head-sampled, errored, or slower than ``slow_threshold_s``
    (tail-keep), into a ring of the last :data:`MAX_RETAINED`. Only a
    kept request ever gets a :class:`Trace`.

    Parameters
    ----------
    sample_rate:
        Fraction of requests head-sampled into the retained set, in
        ``[0, 1]``.
    slow_threshold_s:
        Tail-keep latency threshold: any request settled at least this
        long after its arrival is retained regardless of head sampling.
        ``None`` disables the slow path (errors are always kept).
    """

    def __init__(
        self,
        sample_rate: float = 0.01,
        slow_threshold_s: float | None = 0.5,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise TelemetryError("sample_rate must be in [0, 1]")
        if slow_threshold_s is not None and slow_threshold_s < 0:
            raise TelemetryError("slow_threshold_s must be >= 0")
        self.sample_rate = sample_rate
        self.slow_threshold_s = slow_threshold_s
        self.retained: deque[Trace] = deque(maxlen=MAX_RETAINED)
        self.started = 0
        self.finished = 0
        self.kept_sampled = 0
        self.kept_tail = 0
        self.dropped = 0
        self._acc = 0.0
        # Per-tenant rate overrides (adaptive sampling). Each overridden
        # tenant diffuses error through its *own* accumulator so its
        # keep cadence is exact and independent; with no overrides the
        # shared accumulator path below is bit-for-bit the historical
        # behavior.
        self._tenant_rates: dict[str | None, float] = {}
        self._tenant_accs: dict[str | None, float] = {}

    # -- per-tenant sampling overrides -----------------------------------------
    def set_tenant_rate(self, tenant: str | None, rate: float) -> None:
        """Override the head-sampling rate for one tenant's requests.

        Installed by the adaptive-sampling controller when a tenant
        starts burning SLO budget. The override owns a dedicated
        error-diffusion accumulator, so escalation stays deterministic
        and other tenants' sampling cadence is untouched.
        """
        if not 0.0 <= rate <= 1.0:
            raise TelemetryError("tenant rate must be in [0, 1]")
        self._tenant_rates[tenant] = rate

    def clear_tenant_rate(self, tenant: str | None) -> None:
        """Drop a tenant's rate override (back to ``sample_rate``)."""
        self._tenant_rates.pop(tenant, None)
        self._tenant_accs.pop(tenant, None)

    def effective_rate(self, tenant: str | None) -> float:
        """The head-sampling rate currently applied to ``tenant``."""
        return self._tenant_rates.get(tenant, self.sample_rate)

    @property
    def tenant_rates(self) -> dict[str | None, float]:
        """Copy of the active per-tenant rate overrides."""
        return dict(self._tenant_rates)

    def begin(self, tenant: str | None = None) -> bool:
        """Head-sample one request of ``tenant`` at its door: one
        error-diffusion decision, counted as started. Builds nothing;
        the caller keeps the flag for :meth:`settle_request`."""
        self.started += 1
        if self._tenant_rates and tenant in self._tenant_rates:
            rate = self._tenant_rates[tenant]
            acc = self._tenant_accs.get(tenant, 0.0) + rate
            sampled = acc >= 1.0 - 1e-12
            if sampled:
                acc -= 1.0
            self._tenant_accs[tenant] = acc
            return sampled
        self._acc += self.sample_rate
        sampled = self._acc >= 1.0 - 1e-12
        if sampled:
            self._acc -= 1.0
        return sampled

    def _retain(self, sampled: bool, error: bool, duration: float) -> bool:
        """The one retention rule, counted: keep when head-sampled, else
        when errored or at least ``slow_threshold_s`` old, else drop."""
        if sampled:
            self.kept_sampled += 1
            return True
        if error or (
            self.slow_threshold_s is not None and duration >= self.slow_threshold_s
        ):
            self.kept_tail += 1
            return True
        self.dropped += 1
        return False

    def settle_request(
        self,
        record,
        end: float,
        error: bool = False,
        batch: BatchTiming | None = None,
        index: int = 0,
        mark: tuple[str, float, dict | None] | None = None,
    ) -> None:
        """Settle one request at ``end``: the one settle path, for a
        batch member (``batch`` and its ``index`` in it), a denial at
        the door and a dead letter (its ``mark``) alike.

        ``record`` is the request's
        :class:`~repro.core.record.RequestRecord`. Retention runs on
        scalars before anything is built: the door's sample (a request
        no traced door saw is sampled here), ``error``, and the time
        from the record's arrival to ``end``. Only a kept request gets
        a :class:`Trace`, rooted at its arrival and built complete —
        the door's ``admission`` and ``lane_wait`` spans, then its
        :class:`MemberRecord`, then its marks — and set on its record.
        """
        request = record.body
        sampled = record.sampled
        if sampled is None:
            sampled = self.begin(request.tenant)
        self.finished += 1
        start = record.arrival_time
        if end < start:  # the clock read a rounding hair before the arrival
            end = start
        if not self._retain(sampled, error, end - start):
            return
        trace = Trace(
            request.task_uuid,
            request.servable_name,
            start,
            end,
            sampled,
            error,
            request.tenant,
        )
        reclaims = record.reclaims or ()
        if record.decided_at is not None:
            trace.span(
                "admission",
                start,
                record.decided_at,
                "ok" if record.admitted else "error",
                outcome=record.decision.outcome.value,
            )
            if record.enqueued_at is not None:
                # One lane stay per release: from arrival to the first,
                # then from each reclaim to the re-release after it.
                trace.span("lane_wait", start, record.enqueued_at)
                for reclaimed, released in zip(reclaims[::2], reclaims[1::2]):
                    trace.span("lane_wait", reclaimed, released)
        if batch is not None:
            trace._raw.append(batch.member(record, index, end, error))
        for reclaimed in reclaims[::2]:
            trace.mark(
                "reclaim", reclaimed, tenant=request.tenant, servable=request.servable_name
            )
        if mark is not None:
            trace.marks.append(mark)
        record.trace = trace
        self.retained.append(trace)

    #: The name the end-to-end benchmark's layer tracer wraps as well.
    settle_member = settle_request

    def stats(self) -> dict:
        """Lifetime tracer counters (a hub source)."""
        return {
            "started": self.started,
            "finished": self.finished,
            "kept_sampled": self.kept_sampled,
            "kept_tail": self.kept_tail,
            "dropped": self.dropped,
            "retained": len(self.retained),
            "sample_rate": self.sample_rate,
        }

    # -- exporters ----------------------------------------------------------------
    def chrome_trace(self, traces: list[Trace] | None = None) -> dict:
        """Retained traces in Chrome trace-event format.

        Each trace gets its own ``tid`` so request waterfalls render as
        separate rows; spans are ``"X"`` (complete) events with
        microsecond timestamps, marks are ``"i"`` (instant) events.
        """
        traces = list(self.retained) if traces is None else traces
        events = []
        for tid, trace in enumerate(traces, start=1):
            base = {"pid": 1, "tid": tid, "cat": trace.name}
            events.append(
                {
                    **base,
                    "ph": "X",
                    "name": f"request {trace.trace_id[:8]}",
                    "ts": trace.start * 1e6,
                    "dur": trace.duration * 1e6,
                    "args": {
                        "trace_id": trace.trace_id,
                        "tenant": trace.tenant,
                        "error": trace.error,
                        "sampled": trace.sampled,
                        **(trace.attrs or {}),
                    },
                }
            )
            for span in sorted(trace.spans, key=lambda s: (s.start, s.end)):
                events.append(
                    {
                        **base,
                        "ph": "X",
                        "name": span.name,
                        "ts": span.start * 1e6,
                        "dur": span.duration * 1e6,
                        "args": {"status": span.status, **(span.attrs or {})},
                    }
                )
            for name, at, attrs in trace.marks:
                events.append(
                    {
                        **base,
                        "ph": "i",
                        "s": "t",
                        "name": name,
                        "ts": at * 1e6,
                        "args": attrs or {},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def chrome_trace_json(self, traces: list[Trace] | None = None) -> str:
        """:meth:`chrome_trace`, serialized."""
        return json.dumps(self.chrome_trace(traces))


# ---------------------------------------------------------------------------
# Telemetry hub
# ---------------------------------------------------------------------------
class TelemetryHub:
    """A registry of named pull sources — nothing is pushed into it.

    :meth:`register_source` binds a zero-argument callable whose return
    value is embedded verbatim in every snapshot — how the collectors
    (stage latencies, tenant usage, pod gauges, WFQ lanes) are unified
    without this module importing any of them. The source contract: a
    nested dict of scalars holding *cumulative* state the owner
    maintains where it records (counts, running sums, gauges), never a
    distribution summary or a history list — so a snapshot costs
    O(keys) however long the run, and every number in it is a series
    the :class:`~repro.core.metrics.SeriesStore` can store once a
    reader declares it.
    Distributions are computed where someone asks for one
    (:meth:`~repro.core.metrics.TimingSummary.of`, a windowed store
    query). There is no push half (labeled counters/gauges/histograms)
    because nothing in the stack ever produced into one.
    """

    def __init__(self) -> None:
        self._sources: dict[str, object] = {}

    def register_source(self, name: str, source) -> None:
        """Bind a pull source: a callable returning a nested dict of
        scalars (the contract in the class docstring).

        Re-registering a name replaces the previous source — how a
        collector swapped out mid-run (fleet churn) is rebound without
        snapshots ever seeing both.
        """
        if not callable(source):
            raise TelemetryError(f"source {name!r} must be callable")
        self._sources[name] = source

    def source_names(self) -> tuple[str, ...]:
        """Registered source names, sorted."""
        return tuple(sorted(self._sources))

    def snapshot(self) -> dict:
        """Every source's current payload, as one JSON-able document; a
        source that raises propagates (:meth:`pull` isolates it)."""
        return {
            "sources": {
                name: source() for name, source in sorted(self._sources.items())
            }
        }

    def pull(self, names) -> dict:
        """The named sources' payloads, in sorted name order. A source
        that raises (a collector torn down mid-churn) becomes an
        ``{"error": ...}`` stub instead of poisoning the whole pull."""
        payloads = {}
        for name in sorted(names):
            try:
                payloads[name] = self._sources[name]()
            except Exception as exc:  # noqa: BLE001 — churn isolation
                payloads[name] = {"error": repr(exc)}
        return payloads


def build_hub(
    runtime=None,
    gateway=None,
    controller=None,
    tracer: Tracer | None = None,
    monitor: "SLOBurnMonitor | None" = None,
) -> TelemetryHub:
    """Wire a hub over whichever stack pieces exist.

    Pure duck typing — pass any subset; each contributes pull sources:
    the runtime its stage-latency/pod collector and dispatch counters,
    the gateway its tenant-usage collector and WFQ lane depths, the
    controller its fleet-event count, the tracer its retention stats,
    the monitor its breach count. The logs themselves stay where they
    are (``controller.events``, ``monitor.breaches``); a scrape only
    needs how many there have been.
    """
    hub = TelemetryHub()
    if runtime is not None:
        hub.register_source("stage_latency", runtime.stage_metrics.snapshot)
        hub.register_source(
            "runtime",
            lambda: {
                "batches_dispatched": runtime.batches_dispatched,
                "items_served": runtime.items_served,
                "memo_hits": runtime.memo_hits,
                "mean_batch_size": runtime.mean_batch_size,
            },
        )
    if gateway is not None:
        hub.register_source("tenant_usage", gateway.metrics.snapshot)
        hub.register_source("wfq_lanes", gateway.scheduler.snapshot)
    if controller is not None:
        hub.register_source(
            "fleet_events", lambda: {"count": len(controller.events)}
        )
    if tracer is not None:
        hub.register_source("tracer", tracer.stats)
    if monitor is not None:
        hub.register_source(
            "slo_burn", lambda: {"count": len(monitor.breaches)}
        )
    return hub


# ---------------------------------------------------------------------------
# SLO burn-rate monitoring
# ---------------------------------------------------------------------------
#: :class:`SLOBurnMonitor`: the per-request latency objective (settled
#: minus arrived), the target good fraction (0.99 -> a 1% error budget),
#: the sliding window, the burn-rate multiple at which a breach fires,
#: the settlements a window needs before its burn is trusted, and the
#: least virtual time between two breaches of one tenant.
SLO_LATENCY_S = 0.250
SLO_OBJECTIVE = 0.99
SLO_WINDOW_S = 1.0
SLO_BURN_THRESHOLD = 4.0
SLO_MIN_SAMPLES = 20
SLO_COOLDOWN_S = 1.0


@dataclass(frozen=True)
class SLOBreach:
    """One burn-rate threshold crossing for one tenant."""

    time: float
    tenant: str
    burn_rate: float
    bad_fraction: float
    window_s: float
    samples: int


class SLOBurnMonitor:
    """Windowed per-tenant SLO burn rate with threshold alerts.

    A settlement is *bad* when it failed or exceeded
    :data:`SLO_LATENCY_S`. Each tenant's settlements are a 0/1 badness
    series in the monitor's own :class:`~repro.core.metrics.SeriesStore`,
    which keeps :data:`SLO_WINDOW_S` of it. The burn rate over the
    window is the bad fraction divided by the error budget
    ``1 - SLO_OBJECTIVE`` — burn 1.0 spends the budget exactly, an
    SRE-standard multiple. :meth:`check` fires at most one
    :class:`SLOBreach` per tenant per :data:`SLO_COOLDOWN_S` once at
    least :data:`SLO_MIN_SAMPLES` settlements are in window and the burn
    rate is at or above :data:`SLO_BURN_THRESHOLD`.
    """

    def __init__(self) -> None:
        self.breaches: list[SLOBreach] = []
        #: One 0/1 badness series per tenant, named by the tenant.
        self.store = SeriesStore()
        #: tenant -> when its last breach fired (the cooldown's anchor).
        self._last_fired: dict[str, float] = {}
        self._drained = 0

    def tenants(self) -> tuple[str, ...]:
        """Tenants with at least one recorded settlement, sorted —
        what the scrape loop iterates to gauge per-tenant burn."""
        return self.store.names()

    def record(
        self, tenant: str, at: float, latency_s: float, ok: bool = True
    ) -> None:
        """Fold one settlement into the tenant's series; ``at`` must not
        precede the tenant's previous settlement."""
        if tenant not in self._last_fired:
            self._last_fired[tenant] = -math.inf
            self.store.retain(tenant, SLO_WINDOW_S)
        self.store.record(tenant, at, (not ok) or latency_s > SLO_LATENCY_S)

    def burn_rate(self, tenant: str, now: float) -> float | None:
        """Current burn-rate multiple, ``None`` below :data:`SLO_MIN_SAMPLES`."""
        return self._burn(tenant, now)[0]

    def _burn(self, tenant: str, now: float) -> tuple[float | None, int]:
        """The burn rate over ``[now - SLO_WINDOW_S, now]`` and how many
        settlements that window holds."""
        if tenant not in self._last_fired:
            return None, 0
        samples = self.store.window(tenant, SLO_WINDOW_S, now)
        if len(samples) < SLO_MIN_SAMPLES:
            return None, len(samples)
        fraction = sum(bad for _, bad in samples) / len(samples)
        return fraction / (1.0 - SLO_OBJECTIVE), len(samples)

    def check(self, now: float) -> list[SLOBreach]:
        """Evaluate every tenant; returns (and logs) fresh breaches."""
        fired = []
        for tenant in self.tenants():
            if now - self._last_fired[tenant] < SLO_COOLDOWN_S:
                continue
            burn, samples = self._burn(tenant, now)
            if burn is None or burn < SLO_BURN_THRESHOLD:
                continue
            self._last_fired[tenant] = now
            breach = SLOBreach(
                time=now,
                tenant=tenant,
                burn_rate=burn,
                bad_fraction=burn * (1.0 - SLO_OBJECTIVE),
                window_s=SLO_WINDOW_S,
                samples=samples,
            )
            self.breaches.append(breach)
            fired.append(breach)
        return fired

    def drain(self) -> list[SLOBreach]:
        """Breaches logged since the previous drain (controller feed)."""
        fresh = self.breaches[self._drained :]
        self._drained = len(self.breaches)
        return fresh
