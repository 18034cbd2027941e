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
"""

from __future__ import annotations

from collections import defaultdict
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
    stage name in the ``metric`` field.
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
        #: Sparse per-sample timestamps: sample index -> virtual time,
        #: populated only for samples recorded with an ``at`` anchor —
        #: stages that never use windows cost nothing extra.
        self._times: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
        #: Cumulative busy seconds per (servable, pod) — the chunk-level
        #: utilization gauge replica autoscalers read for imbalance.
        self._pod_busy: dict[tuple[str, str], float] = defaultdict(float)
        self._pod_chunks: dict[tuple[str, str], int] = defaultdict(int)

    def record(
        self, stage: str, servable: str, seconds: float, at: float | None = None
    ) -> None:
        """Append one stage sample, optionally timestamped.

        ``at`` anchors the sample on the virtual clock (the serving
        runtime stamps queue waits with the request's *enqueue* time),
        which is what windowed reads (:meth:`samples_in_window`) key on;
        untimestamped samples simply fall outside every window.
        """
        if stage not in self.stages:
            raise ValueError(f"unknown stage {stage!r}; choose from {self.stages}")
        if seconds < 0:
            raise ValueError(f"stage {stage!r} sample must be >= 0")
        key = (stage, servable)
        seconds = float(seconds)
        samples = self._samples[key]
        samples.append(seconds)
        self._sums[key] += seconds
        if at is not None:
            self._times[key][len(samples) - 1] = float(at)

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

    def samples_in_window(
        self, stage: str, servable: str, start: float, end: float
    ) -> list[float]:
        """Samples whose timestamp lands in ``[start, end)``.

        Only samples recorded with an ``at`` anchor participate — this
        is how benchmarks isolate e.g. the queue waits of requests that
        *arrived during a spike phase* from the surrounding warm-up and
        cool-down traffic.
        """
        if stage not in self.stages:
            raise ValueError(f"unknown stage {stage!r}; choose from {self.stages}")
        values = self._samples.get((stage, servable), ())
        times = self._times.get((stage, servable), {})
        return [
            values[index]
            for index, at in times.items()  # insertion order = record order
            if start <= at < end
        ]

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
        interval, not ancient history.
        """
        if busy is None:
            busy = self.pod_busy(servable, prefix=prefix)
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
