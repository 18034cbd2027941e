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

from repro.core.runtime import RuntimeResult, ServingRuntimeError

_EPS = 1e-12


def polled_settle(runtime, now: float, arrival_times: dict) -> list[RuntimeResult]:
    """Settlement by filtering and sorting: every parked batch is tested
    against ``now``; the done ones are emitted in ``(completed_at, seq)``
    order."""
    done = [entry for entry in runtime._pending if entry[0] <= now + _EPS]
    if not done:
        return []
    done_seqs = {seq for _, seq, _ in done}
    runtime._pending = [e for e in runtime._pending if e[1] not in done_seqs]
    heapq.heapify(runtime._pending)
    for _, _, batch in done:
        topic = batch.messages[0].topic
        left = runtime._pending_by_topic[topic] - 1
        if left:
            runtime._pending_by_topic[topic] = left
        else:
            del runtime._pending_by_topic[topic]
    done.sort(key=lambda entry: (entry[0], entry[1]))
    if runtime.chaos is not None:
        runtime.chaos.trip("pre_settle")
    results: list[RuntimeResult] = []
    for _, _, batch in done:
        results.extend(
            RuntimeResult(
                request=req,
                result=res,
                worker=batch.worker_name,
                batch_size=len(batch.requests),
                arrival_time=arrival_times.get(req.task_uuid, msg.enqueued_at),
                enqueued_at=msg.enqueued_at,
                completed_at=batch.completed_at,
            )
            for msg, req, res in zip(batch.messages, batch.requests, batch.results)
        )
        if batch.trace_ctx is not None and runtime.tracer is not None:
            runtime._settle_traces(batch, now)
    return results


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


def polled_serve(runtime, arrivals=None) -> list[RuntimeResult]:
    """``ServingRuntime.serve`` as a polled loop (see module docstring).

    Controllers tick once per iteration in attach order — what the
    single controller slot plus a mux shim amounted to — and the
    ingress, when attached, must be a ``ServingGateway``.
    """
    clock, queue, ingress = runtime.clock, runtime.queue, runtime._ingress
    # The window index and the dispatch both route through this.
    runtime._route = functools.partial(polled_route, runtime)
    start = clock.now()
    schedule = sorted(
        ((start + offset, request) for offset, request in arrivals or []),
        key=lambda pair: pair[0],
    )
    arrival_times: dict[str, float] = {}
    results: list[RuntimeResult] = []
    i = 0
    stalled_wakeups = 0
    while True:
        queue.expire_inflight()
        for controller in runtime._controllers:
            controller.on_tick()
        now = clock.now()
        if now >= runtime._next_lane_gc:
            runtime.gc_lanes(now)
            runtime._next_lane_gc = now + runtime.lane_idle_ttl_s / 2
        settled = polled_settle(runtime, now, arrival_times)
        results.extend(settled)
        if ingress is not None:
            if settled:
                ingress.on_settled(settled)
            polled_gateway_tick(ingress, now)
        while i < len(schedule) and schedule[i][0] <= now + _EPS:
            intended, request = schedule[i]
            i += 1
            arrival_times[request.task_uuid] = intended
            runtime.submit(request)
        due_topic, next_event = runtime._next_window(now)
        if due_topic is not None:
            stalled_wakeups = 0
            runtime._dispatch_topic(due_topic)
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
            if ingress is not None and ingress.pending():
                if runtime._controllers and stalled_wakeups < 64 and now < wake:
                    stalled_wakeups += 1
                    clock.advance_to(wake)
                    continue
                raise ServingRuntimeError(
                    f"ingress holds {ingress.pending()} pending "
                    "request(s) but reports no next event"
                )
            return results
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
