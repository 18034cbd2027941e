"""Outside-in span tracing of the serving stack's layers.

The benchmark may not edit the program, so layers are measured from
outside: :class:`OutsideTracer` replaces, at class (or module) level,
the public functions that form each layer's boundary with timing
wrappers, and restores them afterwards. Every call becomes a span —
name, start, end, the enclosing span, and whatever ``task_uuid`` its
arguments or result expose. A span stack gives each span's **self
time**: its duration minus the part its child spans cover, so a layer
is charged only for work no wrapped callee did.

Totals are kept for every span; raw spans only for the first
:data:`RAW_SPAN_LIMIT`, and everything is held in memory until
:meth:`OutsideTracer.write`. End-to-end numbers never come from a
traced run — the wrappers cost about as much as the cheapest functions
they wrap — and the traced/untraced ratio is itself reported.
"""

from __future__ import annotations

import itertools
import json
from time import perf_counter_ns

import repro.durability.chaos as chaos_module
from repro.auth.service import AuthService
from repro.core.executors import ParslServableExecutor
from repro.core.fleet import FleetController
from repro.core.memo import MemoCache
from repro.core.metrics import StageLatencyCollector, TenantUsageCollector
from repro.core.obsloop import AlertEngine, ObservabilityLoop, SeriesStore
from repro.core.runtime import ServingRuntime
from repro.core.task_manager import TaskManager
from repro.core.telemetry import SLOBurnMonitor, TelemetryHub, Tracer
from repro.durability.journal import Journal
from repro.durability.store import InMemoryDurableStore
from repro.gateway.admission import AdmissionController
from repro.gateway.gateway import ServingGateway
from repro.gateway.policy import TenantPolicyTable
from repro.gateway.scheduler import WeightedFairScheduler
from repro.messaging.queue import TaskQueue
from repro.sim.clock import VirtualClock

RAW_SPAN_LIMIT = 50_000

#: layer -> the public functions that form its boundary, as
#: ``(owner, attribute names)``; an owner is a class or, for the
#: recovery functions, the module whose binding the harness calls.
LAYERS: dict[str, tuple[tuple[object, tuple[str, ...]], ...]] = {
    "auth": ((AuthService, ("authorize", "principal_groups")),),
    "gateway.policy": ((TenantPolicyTable, ("resolve",)),),
    "gateway.admission": ((AdmissionController, ("admit", "release")),),
    "gateway.scheduler": (
        (
            WeightedFairScheduler,
            (
                "enqueue",
                "dequeue",
                "dequeue_eligible",
                "set_eligible",
                "requeue_front",
                "depth",
                "has_eligible_work",
            ),
        ),
    ),
    "gateway.gateway": (
        (
            ServingGateway,
            (
                "serve",
                "offer",
                "on_tick",
                "on_settled",
                "next_event",
                "pending",
                "on_fleet_change",
                "restore_open",
            ),
        ),
    ),
    "messaging.queue": (
        (
            TaskQueue,
            (
                "put",
                "claim_many",
                "ack",
                "nack",
                "expire_inflight",
                "next_inflight_expiry",
                "oldest_ready",
                "ready_count",
                "withdraw_newest",
                "topics",
            ),
        ),
    ),
    "durability.journal": ((Journal, ("append", "snapshot_now", "encode_body")),),
    "durability.store": (
        (
            InMemoryDurableStore,
            ("append", "write_snapshot", "read_journal", "read_snapshot"),
        ),
    ),
    "durability.recovery": (
        (
            chaos_module,
            ("begin_recovery", "materialize_queue", "gateway_restore_entries"),
        ),
    ),
    "core.runtime": (
        (
            ServingRuntime,
            (
                "serve",
                "submit",
                "gc_lanes",
                "hosts",
                "queue_depth",
                "fleet_stats",
                "alive_workers",
            ),
        ),
    ),
    "core.task_manager": ((TaskManager, ("process",)),),
    "core.memo": ((MemoCache, ("lookup", "store")),),
    "core.executors": ((ParslServableExecutor, ("invoke", "invoke_batch")),),
    "core.metrics": (
        (StageLatencyCollector, ("record", "record_pod_share")),
        (
            TenantUsageCollector,
            ("record_admitted", "record_denied", "record_completion"),
        ),
    ),
    "core.fleet": (
        (FleetController, ("on_tick", "next_wakeup", "reconcile", "observe")),
    ),
    "core.obsloop": (
        (ObservabilityLoop, ("on_tick", "next_wakeup", "scrape")),
        (SeriesStore, ("scrape",)),
        (AlertEngine, ("evaluate",)),
    ),
    "core.telemetry": (
        (Tracer, ("begin", "settle_request", "settle_member")),
        (TelemetryHub, ("snapshot",)),
        (SLOBurnMonitor, ("record", "check", "burn_rate")),
    ),
    "sim.clock": ((VirtualClock, ("advance", "advance_to")),),
}


def _task_uuids(values) -> list[str]:
    """The ``task_uuid`` of every request, message or result among
    ``values`` (looking one level into lists)."""
    found = []
    for value in values:
        for item in value if isinstance(value, (list, tuple)) else (value,):
            for holder in (
                item,
                getattr(item, "request", None),
                getattr(item, "body", None),
            ):
                uuid = getattr(holder, "task_uuid", None)
                if uuid is not None:
                    found.append(uuid)
                    break
    return found


class OutsideTracer:
    """Wraps :data:`LAYERS` while installed and accumulates span totals.

    ``hooks`` maps ``(owner, attribute)`` to ``fn(args, kwargs, result)``
    called after each span of that function (``result`` is ``None`` when
    the call raised) — how counts that live only in call arguments
    (bytes appended, offer lateness) are collected where the work
    happens.
    """

    def __init__(self, hooks: dict | None = None) -> None:
        self.hooks = hooks or {}
        #: (layer, "Owner.function") -> [calls, inclusive ns, self ns]
        self.totals: dict[tuple[str, str], list[int]] = {}
        #: (span id, parent id or 0, layer, function, start ns, end ns, uuids)
        self.raw: list[tuple] = []
        self._stack: list[list[int]] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "OutsideTracer":
        for layer, owners in LAYERS.items():
            for owner, names in owners:
                for name in names:
                    original = vars(owner)[name]
                    label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
                    hook = self.hooks.get((owner, name))
                    if isinstance(original, staticmethod):
                        wrapped = staticmethod(
                            self._wrap(layer, label, original.__func__, hook)
                        )
                    else:
                        wrapped = self._wrap(layer, label, original, hook)
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, layer: str, label: str, fn, hook):
        total = self.totals.setdefault((layer, label), [0, 0, 0])
        stack, raw, ids = self._stack, self.raw, self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, next(ids)]  # [ns covered by child spans, span id]
            stack.append(frame)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                # Also on the way out of a simulated crash: the span
                # stack must unwind with the call stack.
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if len(raw) < RAW_SPAN_LIMIT:
                    raw.append(
                        (
                            frame[1],
                            parent[1] if parent is not None else 0,
                            layer,
                            label,
                            start,
                            end,
                            _task_uuids((*args, *kwargs.values(), result)),
                        )
                    )
                if hook is not None:
                    hook(args, kwargs, result)
            return result

        return wrapper

    # -- reading the totals -------------------------------------------------------
    def layer_calls(self, layer: str) -> int:
        """Spans recorded in ``layer``."""
        return sum(t[0] for (name, _), t in self.totals.items() if name == layer)

    def layer_self_ns(self, layer: str) -> int:
        """Self time of ``layer``: its spans minus their child spans."""
        return sum(t[2] for (name, _), t in self.totals.items() if name == layer)

    def calls(self, layer: str, *labels: str) -> int:
        """Spans recorded for the named functions of ``layer``."""
        return sum(self.totals.get((layer, label), (0, 0, 0))[0] for label in labels)

    def inclusive_ns(self, layer: str, *labels: str) -> int:
        """Total duration (children included) of the named functions."""
        return sum(self.totals.get((layer, label), (0, 0, 0))[1] for label in labels)

    def write(self, path, header: dict) -> None:
        """Dump totals and the raw-span window as one JSON document."""
        first = self.raw[0][4] if self.raw else 0
        document = {
            **header,
            "totals_fields": ["calls", "inclusive_us", "self_us"],
            "totals": {
                f"{layer}:{label}": [calls, inclusive / 1e3, own / 1e3]
                for (layer, label), (calls, inclusive, own) in sorted(
                    self.totals.items()
                )
                if calls
            },
            "span_fields": [
                "id", "parent", "layer", "function", "start_us", "end_us", "task_uuids"
            ],
            "spans_recorded": len(self.raw),
            "spans": [
                [sid, parent, layer, label, (start - first) / 1e3, (end - first) / 1e3, uuids]
                for sid, parent, layer, label, start, end, uuids in self.raw
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")))
