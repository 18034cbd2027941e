"""Timing instrumentation matching the paper's metric definitions (SS V-A).

* **inference time** — captured at the servable,
* **invocation time** — captured at the Task Manager (executor round trip),
* **request time** — captured at the Management Service,
* **makespan** — completion time of a whole batch of requests.

Each request carries its own three times on its
:class:`~repro.core.tasks.TaskResult` (``inference_time``,
``invocation_time``, ``request_time``), which is where the figure
benches read them; :meth:`TimingSummary.of` reports the median and
5th/95th percentiles the figures plot. The collectors here hold what no
single result can: per-stage runtime samples and per-tenant usage.

Every *time window* over those numbers lives in one place, the
:class:`SeriesStore` (a leaf here so both :mod:`repro.core.telemetry`
and :mod:`repro.core.obsloop` can build on it): a window is a query over
stored series, and a series keeps only what its readers' longest
declared window needs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TimingSummary:
    """Median and tail percentiles of one metric for one servable."""

    servable: str
    metric: str
    count: int
    median: float
    p5: float
    p95: float
    mean: float

    @classmethod
    def of(cls, values, servable: str, metric: str) -> "TimingSummary":
        """Summarize non-empty ``values`` (seconds); ``KeyError`` if empty.

        The one place sample percentiles are computed — when someone
        asks for a summary, never by a telemetry scrape.
        """
        values = np.array(values)
        if values.size == 0:
            raise KeyError(f"no {metric} samples for {servable!r}")
        return cls(
            servable=servable,
            metric=metric,
            count=int(values.size),
            median=float(np.median(values)),
            p5=float(np.percentile(values, 5)),
            p95=float(np.percentile(values, 95)),
            mean=float(values.mean()),
        )


#: Pipeline stages the serving runtime accounts for each micro-batch.
#: ``queue_wait`` (per item, enqueue -> claim) *contains* the batch's
#: ``coalesce_delay`` (how long the window was held open — the head
#: item's wait); the stages are observability views, not disjoint
#: addends. ``dispatch`` + ``inference`` decompose the executor trip.
RUNTIME_STAGES = ("queue_wait", "coalesce_delay", "dispatch", "inference")


class StageLatencyCollector:
    """Per-stage latency samples keyed by ``(stage, servable)``.

    The serving runtime decomposes each request's life into named stages
    (:data:`RUNTIME_STAGES` by default) and records a virtual-seconds
    sample per stage; summaries reuse :class:`TimingSummary` with the
    stage name in the ``metric`` field. Samples carry no timestamps: a
    reader that wants a request's waits by arrival reads the
    :class:`~repro.core.record.RequestRecord` ``serve`` returns.
    """

    def __init__(self, stages: tuple[str, ...] = RUNTIME_STAGES) -> None:
        if not stages:
            raise ValueError("at least one stage is required")
        self.stages = tuple(stages)
        self._samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        #: Running sum per (stage, servable), read only by
        #: :meth:`snapshot` so a scrape never walks the sample lists
        #: (:meth:`stage_sum` still sums the samples themselves).
        self._sums: dict[tuple[str, str], float] = defaultdict(float)
        #: Cumulative busy seconds per (servable, pod) — the chunk-level
        #: utilization gauge replica autoscalers read for imbalance.
        self._pod_busy: dict[tuple[str, str], float] = defaultdict(float)
        self._pod_chunks: dict[tuple[str, str], int] = defaultdict(int)

    def record(self, stage: str, servable: str, seconds: float) -> None:
        """Append one stage sample."""
        if stage not in self.stages:
            raise ValueError(f"unknown stage {stage!r}; choose from {self.stages}")
        if seconds < 0:
            raise ValueError(f"stage {stage!r} sample must be >= 0")
        key = (stage, servable)
        seconds = float(seconds)
        self._samples[key].append(seconds)
        self._sums[key] += seconds

    def samples(self, stage: str, servable: str | None = None) -> list[float]:
        """All samples for a stage, optionally restricted to one servable."""
        if servable is not None:
            return list(self._samples.get((stage, servable), ()))
        return [
            value
            for (s, _), values in self._samples.items()
            if s == stage
            for value in values
        ]

    def samples_since(self, stage: str, servable: str, index: int) -> list[float]:
        """Samples recorded after cursor ``index`` for ``(stage, servable)``.

        Samples are append-only, so a consumer that remembers the last
        ``count(stage, servable)`` it saw gets exactly the new window —
        how the fleet controller computes *recent* tail latency without
        the all-time history washing out a spike.
        """
        if stage not in self.stages:
            raise ValueError(f"unknown stage {stage!r}; choose from {self.stages}")
        if index < 0:
            raise ValueError("index must be >= 0")
        return list(self._samples.get((stage, servable), ())[index:])

    # -- per-pod utilization gauge ---------------------------------------------------
    def record_pod_share(self, servable: str, pod: str, seconds: float) -> None:
        """Accumulate one replica chunk's busy time onto its pod's gauge.

        ``pod`` should be globally unique (the runtime uses
        ``"worker/pod"``), so one servable sharded across workers keeps
        per-pod gauges distinct. The gauge is what lets a replica
        autoscaler see *imbalance between chunks* — a straggler pod —
        rather than only the aggregate inference rate.
        """
        if seconds < 0:
            raise ValueError("pod share must be >= 0")
        self._pod_busy[(servable, pod)] += float(seconds)
        self._pod_chunks[(servable, pod)] += 1

    def pod_busy(self, servable: str, prefix: str | None = None) -> dict[str, float]:
        """Cumulative busy seconds per pod for one servable.

        ``prefix`` restricts to pods whose name starts with it — pass
        ``"worker-name/"`` to read one host's replica set.
        """
        return {
            pod: busy
            for (s, pod), busy in sorted(self._pod_busy.items())
            if s == servable and (prefix is None or pod.startswith(prefix))
        }

    def pod_imbalance(
        self,
        servable: str,
        prefix: str | None = None,
        busy: dict[str, float] | None = None,
    ) -> float | None:
        """Max-over-mean pod busy time (1.0 = perfectly even).

        ``None`` until at least one chunk landed. A value well above 1
        means some pods are stragglers while siblings idle — capacity
        the aggregate arrival rate says exists but the critical path
        cannot use, which is the signal that should damp a scale-down.

        Without ``busy`` the ratio is over *cumulative-since-start*
        totals, which an early transient can skew forever; consumers
        watching live imbalance (the fleet controller) should pass a
        windowed ``busy`` map — per-pod deltas between two
        :meth:`pod_busy` snapshots — so the gauge describes the recent
        interval, not ancient history. ``prefix`` restricts either map
        to one host's pods, as in :meth:`pod_busy`.
        """
        if busy is None:
            busy = self.pod_busy(servable, prefix=prefix)
        elif prefix is not None:
            busy = {pod: b for pod, b in busy.items() if pod.startswith(prefix)}
        if not busy:
            return None
        mean = sum(busy.values()) / len(busy)
        if mean <= 0:
            return 1.0
        return max(busy.values()) / mean

    def count(self, stage: str | None = None, servable: str | None = None) -> int:
        """Number of records, optionally restricted to one servable."""
        if stage is not None and servable is not None:
            # The fully-keyed read is a per-tick cursor check in the
            # fleet controller's observe loop — keep it a dict lookup,
            # not a scan over every (stage, servable) pair.
            return len(self._samples.get((stage, servable), ()))
        return sum(
            len(values)
            for (s, sv), values in self._samples.items()
            if (stage is None or s == stage) and (servable is None or sv == servable)
        )

    def summarize(self, stage: str, servable: str | None = None) -> TimingSummary:
        """Percentile summary of one stage (``servable=None`` aggregates)."""
        return TimingSummary.of(
            self.samples(stage, servable),
            servable if servable is not None else "*",
            stage,
        )

    def stage_sum(self, stage: str, servable: str | None = None) -> float:
        """Sum of one stage's samples (``servable=None`` aggregates).

        The aggregate trace reconciliation reads: summed stage spans
        across settled requests must match this figure (within float
        tolerance) when tracing is on at 100% sampling.
        """
        return float(sum(self.samples(stage, servable)))

    def snapshot(self) -> dict:
        """Cumulative sample count and summed seconds per
        ``servable.stage`` plus the pod gauges, as one JSON-able doc
        (the telemetry hub's pull-source view of this collector).
        O(keys): a windowed mean is ``rate(sum_s) / rate(count)`` in the
        series store; percentiles come from :meth:`summarize`."""
        return {
            "stages": {
                f"{servable}.{stage}": {
                    "count": len(values),
                    "sum_s": self._sums[(stage, servable)],
                }
                for (stage, servable), values in sorted(self._samples.items())
            },
            "pod_busy_s": {
                f"{servable}/{pod}": busy
                for (servable, pod), busy in sorted(self._pod_busy.items())
            },
            "pod_chunks": {
                f"{servable}/{pod}": count
                for (servable, pod), count in sorted(self._pod_chunks.items())
            },
        }


@dataclass
class TenantCounters:
    """One tenant's cumulative traffic picture at the gateway."""

    tenant: str
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Denials keyed by typed outcome value (e.g. ``rejected_rate_limit``).
    denied: dict = field(default_factory=dict)
    #: Summed end-to-end latency of every completion and failure.
    latency_sum_s: float = 0.0

    @property
    def denied_total(self) -> int:
        """Denials across every typed outcome."""
        return sum(self.denied.values())

    @property
    def in_progress(self) -> int:
        """Admitted but not yet completed/failed."""
        return self.admitted - self.completed - self.failed


class TenantUsageCollector:
    """Per-tenant admission counters and summed end-to-end latency.

    The serving gateway records every admission decision and completion
    here. Memory is O(tenants x servables): no per-completion sample is
    kept.
    """

    def __init__(self) -> None:
        self._counters: dict[str, TenantCounters] = {}
        #: servable -> tenant -> cumulative admissions. Indexed by
        #: servable (not flat ``(tenant, servable)`` pairs) so the
        #: fleet controller's per-servable demand reads are a dict
        #: lookup, not a scan over every tenant x servable pair.
        self._admitted_by_servable: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        #: servable -> cumulative admissions across tenants (the O(1)
        #: aggregate the reconcile loop polls every tick).
        self._admitted_totals: dict[str, int] = defaultdict(int)

    def _counter(self, tenant: str) -> TenantCounters:
        counter = self._counters.get(tenant)
        if counter is None:
            counter = TenantCounters(tenant=tenant)
            self._counters[tenant] = counter
        return counter

    def record_admitted(self, tenant: str, servable: str) -> None:
        """Count one admission for ``tenant`` on ``servable``."""
        self._counter(tenant).admitted += 1
        self._admitted_by_servable[servable][tenant] += 1
        self._admitted_totals[servable] += 1

    def record_denied(self, tenant: str, outcome: str) -> None:
        """Count one denial for ``tenant`` keyed by typed ``outcome``."""
        denied = self._counter(tenant).denied
        denied[outcome] = denied.get(outcome, 0) + 1

    def record_completion(
        self, tenant: str, latency_s: float, ok: bool = True
    ) -> None:
        """Record one completion (or failure) and its end-to-end latency."""
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        counter = self._counter(tenant)
        if ok:
            counter.completed += 1
        else:
            counter.failed += 1
        counter.latency_sum_s += float(latency_s)

    # -- reads --------------------------------------------------------------------
    def tenants(self) -> list[str]:
        """Tenant names with recorded activity, sorted."""
        return sorted(self._counters)

    def counters(self, tenant: str) -> TenantCounters:
        """One tenant's cumulative counters; raises ``KeyError`` if unseen."""
        counter = self._counters.get(tenant)
        if counter is None:
            raise KeyError(f"no usage recorded for tenant {tenant!r}")
        return counter

    def servable_admitted_count(self, servable: str) -> int:
        """Cumulative admissions for one servable across every tenant —
        monotonic and O(1), the aggregate the gateway exposes to the
        fleet controller's per-tick demand estimator."""
        return self._admitted_totals.get(servable, 0)

    def tenant_admissions(self, servable: str) -> dict[str, int]:
        """Per-tenant cumulative admissions for one servable."""
        by_tenant = self._admitted_by_servable.get(servable, {})
        return {tenant: count for tenant, count in by_tenant.items() if count}

    def snapshot(self) -> dict:
        """Per-tenant cumulative counters, with end-to-end latency as a
        settled count and summed seconds, as one JSON-able doc (the
        telemetry hub's pull-source view of this collector). O(keys)."""
        return {
            "tenants": {
                tenant: {
                    "admitted": counter.admitted,
                    "completed": counter.completed,
                    "failed": counter.failed,
                    "denied": dict(counter.denied),
                    "in_progress": counter.in_progress,
                    "latency": {
                        "count": counter.completed + counter.failed,
                        "sum_s": counter.latency_sum_s,
                    },
                }
                for tenant, counter in sorted(self._counters.items())
            }
        }


class ObsLoopError(ValueError):
    """Raised on invalid observability-loop configuration or queries."""


class SeriesStore:
    """Every time window in the stack: ``(time, value)`` samples per
    series, each kept as long as its readers' longest window.

    Fed by :meth:`scrape` (once per scrape interval) or :meth:`record`
    directly. A numeric leaf of a hub pull source is named
    ``src:<source>.<dotted.path>``, and a scrape records the ones a
    reader declared (:meth:`retain`), pulling only the sources they
    name: whatever a source reports is queryable over a window once
    someone asks for it, and costs nothing until then. Sources report
    cumulative counts and sums, not summaries: a windowed mean is
    ``rate(<x>.sum_s) / rate(<x>.count)``.

    Readers declare the windows they will query when they register
    (:meth:`retain`): an alert rule at
    :meth:`~repro.core.obsloop.AlertEngine.add_rule`, the
    :class:`~repro.core.telemetry.SLOBurnMonitor` its ``SLO_WINDOW_S``. A
    series keeps every sample inside the longest window declared on it,
    measured back from its newest sample, plus the newest sample before
    that window; a series no reader declared keeps only its newest
    samples. So memory follows the readers' windows, not the run's
    length. Queries at or after a series' newest sample answer exactly
    as over its whole history; a window longer than the declared one
    raises rather than answer from what was dropped.
    """

    def __init__(self) -> None:
        self._series: dict[str, deque] = {}
        #: Longest window any reader declared, per series.
        self._horizon: dict[str, float] = {}

    def retain(self, series: str, window_s: float) -> None:
        """Declare a reader's ``window_s`` over ``series``: from here on
        the series keeps at least that much history."""
        if window_s <= 0:
            raise ObsLoopError("window_s must be > 0")
        if window_s > self._horizon.get(series, 0.0):
            self._horizon[series] = window_s

    # -- ingest ----------------------------------------------------------------
    def record(self, series: str, time_s: float, value: float) -> None:
        """Append one sample; times must be non-decreasing per series.

        Samples the longest declared window no longer reaches are
        dropped here, all but the newest of them.
        """
        buf = self._series.get(series)
        if buf is None:
            buf = self._series[series] = deque()
        elif time_s < buf[-1][0]:
            raise ObsLoopError(
                f"series {series!r} got sample at {time_s} before {buf[-1][0]}"
            )
        buf.append((time_s, float(value)))
        cutoff = time_s - self._horizon.get(series, 0.0)
        while len(buf) > 1 and buf[1][0] < cutoff:
            buf.popleft()

    def scrape(self, hub, now: float) -> int:
        """Record every declared ``src:`` series from the sources they
        name (:meth:`~repro.core.telemetry.TelemetryHub.pull`: a source
        that raises mid-churn is an error stub); returns series touched.

        A declared series naming no registered source raises; one whose
        source does not report that leaf now records nothing.
        """
        names = hub.source_names()
        pulled = set()
        for series in self._horizon:
            if series.startswith("src:"):
                named = [n for n in names if f"{series}.".startswith(f"src:{n}.")]
                if not named:
                    raise ObsLoopError(
                        f"declared series {series!r} names no source on the hub"
                    )
                pulled.update(named)
        return sum(
            self._flatten(f"src:{name}", payload, now)
            for name, payload in hub.pull(pulled).items()
        )

    def _flatten(self, prefix: str, payload, now: float) -> int:
        """Record every declared numeric leaf of a nested source payload.

        ``str`` / ``bool`` / ``None`` leaves are labels, not numbers,
        and are skipped; a list is a source breaking its contract
        (nested dicts of scalars) and raises rather than silently
        dropping whatever it held.
        """
        if isinstance(payload, bool):
            return 0
        if isinstance(payload, (int, float)):
            if prefix not in self._horizon:
                return 0
            self.record(prefix, now, payload)
            return 1
        if isinstance(payload, dict):
            return sum(
                self._flatten(f"{prefix}.{key}", value, now)
                for key, value in payload.items()
            )
        if isinstance(payload, (list, tuple)):
            raise ObsLoopError(
                f"source payload {prefix!r} is a {type(payload).__name__}; "
                "sources report nested dicts of scalars"
            )
        return 0

    # -- queries ---------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """All series names recorded so far, sorted."""
        return tuple(sorted(self._series))

    def latest(self, series: str) -> tuple[float, float] | None:
        """The newest ``(time, value)`` sample, if any."""
        buf = self._series.get(series)
        return buf[-1] if buf else None

    def window(
        self, series: str, window_s: float, now: float
    ) -> list[tuple[float, float]]:
        """Samples with ``now - window_s <= time <= now``, oldest first."""
        if window_s <= 0:
            raise ObsLoopError("window_s must be > 0")
        declared = self._horizon.get(series, 0.0)
        if window_s > declared:
            raise ObsLoopError(
                f"a {window_s} s window over {series!r}, which its readers "
                f"declared {declared} s of (SeriesStore.retain)"
            )
        buf = self._series.get(series)
        if not buf:
            return []
        cutoff = now - window_s
        return [sample for sample in buf if cutoff <= sample[0] <= now]

    def avg(self, series: str, window_s: float, now: float) -> float | None:
        """Mean sample value over the window (None when empty)."""
        samples = self.window(series, window_s, now)
        if not samples:
            return None
        return sum(v for _, v in samples) / len(samples)

    def delta(self, series: str, window_s: float, now: float) -> float | None:
        """Last minus first value over the window (needs >= 2 samples)."""
        samples = self.window(series, window_s, now)
        if len(samples) < 2:
            return None
        return samples[-1][1] - samples[0][1]

    def rate(self, series: str, window_s: float, now: float) -> float | None:
        """Per-second increase over the window — the counter query.

        ``(last - first) / (t_last - t_first)`` over in-window samples;
        None with fewer than two samples or zero elapsed time.
        """
        samples = self.window(series, window_s, now)
        if len(samples) < 2:
            return None
        elapsed = samples[-1][0] - samples[0][0]
        if elapsed <= 0:
            return None
        return (samples[-1][1] - samples[0][1]) / elapsed

    def percentile(
        self, series: str, window_s: float, now: float, q: float
    ) -> float | None:
        """The ``q``-th percentile of sample values over the window."""
        if not 0 <= q <= 100:
            raise ObsLoopError("q must be in [0, 100]")
        samples = self.window(series, window_s, now)
        if not samples:
            return None
        return float(np.percentile([v for _, v in samples], q))
