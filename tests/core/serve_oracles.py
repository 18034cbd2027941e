"""The polled serve loop the timer-heap kernel replaced, kept as an oracle.

``ServingRuntime.serve`` used to be a "min over every possible next
event" loop: every iteration expired claims, ticked the controller,
settled by filtering the pending list, ticked the ingress (which
re-derived its budget from the whole fleet), asked the window index
(which probed every host's liveness), and then polled every source for
its next event to find the sleep target. The kernel in ``src/`` wakes at
the same instants and runs the same phases in the same order, but only
the ones a due timer or an event raised.

These are that loop and its two hooks, moved here (not kept in
``src/``) the way ``lane_oracles.py`` keeps the lane scans: nothing
below consults a timer, an epoch, a raised flag or a cached live-host
list — each answer is re-derived from first principles — so
``test_serve_kernel.py`` can require that both loops produce the same
settlements at the same virtual instants, and
``tests/integration/test_e2e_digests.py`` that this one still
reproduces the digests recorded from the commit that shipped it.
"""

from __future__ import annotations

import functools
import heapq
import math

from repro.core.record import RequestRecord
from repro.core.runtime import ServingRuntimeError
from repro.messaging.queue import VISIBILITY_TIMEOUT_S

_EPS = 1e-12


def polled_settle(runtime, now: float) -> list[list[RequestRecord]]:
    """Settlement by filtering and sorting: every parked batch is tested
    against ``now``; the done ones are completed and emitted in
    ``(completed_at, seq)`` order."""
    done = [entry for entry in runtime._pending if entry[0] <= now + _EPS]
    if not done:
        return []
    done_seqs = {entry[1] for entry in done}
    runtime._pending = [e for e in runtime._pending if e[1] not in done_seqs]
    heapq.heapify(runtime._pending)
    done.sort(key=lambda entry: (entry[0], entry[1]))
    if runtime.chaos is not None:
        runtime.chaos.trip("pre_settle")
    for completed_at, seq, records, trace_ctx in done:
        for record in records:
            record.completed_at = completed_at
        if trace_ctx is not None and runtime.tracer is not None:
            runtime._settle_traces(records, trace_ctx, now)
    return [entry[2] for entry in done]


def polled_route(runtime, servable_name: str, now: float):
    """Routing by probing: every host of the servable is asked whether it
    is live, and the pick among the free ones is the minimum of ``(free
    since, position in copy order)``."""
    best = None
    earliest_free = math.inf
    for idx, worker in enumerate(runtime.hosts(servable_name)):
        if not runtime._is_live(worker):
            continue
        free = runtime.free_at(worker)
        earliest_free = min(earliest_free, free)
        if free <= now + _EPS and (best is None or (free, idx) < best[:2]):
            best = (free, idx, worker)
    return (best[2] if best else None), earliest_free


def polled_live_hosts(runtime, servable_name: str):
    """Liveness by probing: every host of the servable, in copy order,
    that answers live now."""
    return [w for w in runtime.hosts(servable_name) if runtime._is_live(w)]


def polled_gateway_tick(gateway, now: float) -> None:
    """``ServingGateway.on_tick`` as it ran once per loop iteration: the
    budget re-derived from the whole fleet, the over-commit state machine
    stepped, due arrivals offered, the pump run — all unconditionally."""
    gateway._derive_budget()
    gateway._check_overcommit(now)
    while (
        gateway._sched_i < len(gateway._schedule)
        and gateway._schedule[gateway._sched_i][0] <= now + _EPS
    ):
        arrived, token, request = gateway._schedule[gateway._sched_i]
        gateway._sched_i += 1
        gateway._serve_log.append(
            gateway.offer(request, token=token, arrived_at=arrived)
        )
    gateway._pump()


def polled_serve(runtime, arrivals=None) -> list[RequestRecord]:
    """``ServingRuntime.serve`` as a polled loop (see module docstring).

    Controllers tick once per iteration in attach order — what the
    single controller slot plus a mux shim amounted to — and the
    ingress, when attached, must be a ``ServingGateway``.
    """
    clock, queue, ingress = runtime.clock, runtime.queue, runtime._ingress
    # The window index routes through this, and the dispatch takes the
    # host it routed; a servable with only future windows is not routed,
    # just checked for a live host, through the second.
    runtime._route = functools.partial(polled_route, runtime)
    runtime._live_hosts_of = functools.partial(polled_live_hosts, runtime)
    start = clock.now()
    schedule = sorted(
        ((start + offset, request) for offset, request in arrivals or []),
        key=lambda pair: pair[0],
    )
    results: list[RequestRecord] = []
    i = 0
    stalled_since = math.inf
    while True:
        queue.expire_inflight()
        for controller in runtime._controllers:
            controller.on_tick()
        now = clock.now()
        settled = polled_settle(runtime, now)
        for records in settled:
            results.extend(records)
        if ingress is not None:
            if settled:
                ingress.on_settled(settled)
            polled_gateway_tick(ingress, now)
        while i < len(schedule) and schedule[i][0] <= now + _EPS:
            intended, request = schedule[i]
            i += 1
            runtime.submit(RequestRecord(request, arrived_at=intended))
        due_topic, host, next_event = runtime._next_window(now)
        if due_topic is not None:
            stalled_since = math.inf
            runtime._dispatch_topic(due_topic, host)
            continue
        next_arrival = schedule[i][0] if i < len(schedule) else math.inf
        expiry = queue.next_inflight_expiry(runtime._owned_topics)
        if expiry is not None:
            next_event = min(next_event, expiry)
        if runtime._pending:
            next_event = min(next_event, min(e[0] for e in runtime._pending))
        if ingress is not None:
            next_event = min(next_event, ingress.next_event())
        target = min(next_arrival, next_event)
        wake = min((c.next_wakeup() for c in runtime._controllers), default=math.inf)
        if math.isinf(target):
            # The kernel's one rule: return only when nothing is held
            # open — neither the gateway's unoffered arrivals and
            # admitted, unsettled requests, nor a ready message on the
            # runtime's own topics (counted off the queue).
            held = sum(queue.ready_count(topic) for topic in runtime._owned_topics)
            if ingress is not None:
                unoffered = len(ingress._schedule) - ingress._sched_i
                held = (unoffered + len(ingress._open)) or held
            if not held:
                return results
            # Otherwise sleep to the controllers' wake-up unless there is
            # none, or it lies past the queue's visibility timeout from
            # the stall's start.
            stalled_since = min(stalled_since, now)
            if now < wake <= stalled_since + VISIBILITY_TIMEOUT_S:
                clock.advance_to(wake)
                continue
            raise ServingRuntimeError(
                f"{held} request(s) held open with no next event "
                f"after {now - stalled_since:.3f} s stalled"
            )
        if now < wake:
            target = min(target, wake)
        if target > now:
            clock.advance_to(target)


def polled_gateway_serve(gateway, arrivals) -> list:
    """``ServingGateway.serve`` over :func:`polled_serve`."""
    start = gateway.runtime.clock.now()
    gateway._schedule = sorted(
        ((start + offset, token, request) for offset, token, request in arrivals),
        key=lambda entry: entry[0],
    )
    gateway._sched_i = 0
    gateway._serve_log = []
    gateway._serving = True
    try:
        polled_serve(gateway.runtime, [])
    finally:
        gateway._serving = False
        gateway._schedule = []
        gateway._sched_i = 0
    log, gateway._serve_log = gateway._serve_log, []
    return log
